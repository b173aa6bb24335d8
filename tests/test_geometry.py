import math

import numpy as np
import pytest

from mpfollow import geometry as g
from mpfollow.geometry import (
    BoundingBox,
    CameraIntrinsics,
    Extrinsics,
    GeometryError,
    InvalidDetectionError,
    NotVisibleError,
    build_observation_model,
    estimate_depth,
    process_measurement,
    process_measurements,
    project_person,
    robot_pose_extrinsics,
)

from conftest import random_extrinsics


def nonlinear_observation(extr, state_xy, intr, r):
    """Oracle: evaluate the full rigid transform + projection, then
    rearrange the projection equations into observation space."""
    p_c = extr.world_to_camera([state_xy[0], state_xy[1], 0.0])
    width = intr.f_x * r / p_c[2]
    u_mid = intr.f_x * p_c[0] / p_c[2] + intr.c_x
    box = BoundingBox(u_mid - width / 2, 0.0, u_mid + width / 2, 1.0)
    return process_measurement(box, intr, extr, r)


class TestEstimateDepth:
    def test_direct_evaluation(self, intr):
        box = BoundingBox(100, 0, 150, 100)
        assert estimate_depth(box, intr, 0.25) == pytest.approx(2.5)

    def test_inverse_proportional_to_width(self, intr):
        assert estimate_depth(BoundingBox(0, 0, 50, 10), intr, 0.25) == \
            pytest.approx(2.5)
        assert estimate_depth(BoundingBox(0, 0, 100, 10), intr, 0.25) == \
            pytest.approx(1.25)

    def test_round_trip_through_projection(self, intr, forward_extr):
        box = project_person([3.0, 0.0, 0.0], 0.25, 1.7, intr, forward_extr)
        assert estimate_depth(box, intr, 0.25) == pytest.approx(3.0, abs=1e-6)

    def test_strictly_decreasing_in_width(self, intr):
        depths = [estimate_depth(BoundingBox(0, 0, w, 10), intr, 0.25)
                  for w in range(10, 200, 7)]
        assert all(a > b for a, b in zip(depths, depths[1:]))

    def test_degenerate_box_rejected(self):
        with pytest.raises(InvalidDetectionError):
            BoundingBox(150, 0, 100, 100)

    def test_nonpositive_radius_rejected(self, intr):
        with pytest.raises(GeometryError):
            estimate_depth(BoundingBox(0, 0, 50, 10), intr, -1.0)


class TestProcessMeasurement:
    def test_centered_box_identity_extrinsics(self, intr, identity_extr):
        box = BoundingBox(295, 0, 345, 10)
        y = process_measurement(box, intr, identity_extr, 0.25)
        assert y == pytest.approx([0.0, 2.5])

    def test_shifted_box(self, intr, identity_extr):
        # midpoint at c_x + 100, width 50
        box = BoundingBox(395, 0, 445, 10)
        y = process_measurement(box, intr, identity_extr, 0.25)
        assert y[0] == pytest.approx(0.25 * 200 / (2 * 50))

    def test_identity_extrinsics_gives_camera_coords(self, intr, identity_extr):
        # Directly-ahead person at camera (0, ., 4): y is [camera-x, camera-z].
        r = 0.25
        width = intr.f_x * r / 4.0
        box = BoundingBox(intr.c_x - width / 2, 0, intr.c_x + width / 2, 10)
        y = process_measurement(box, intr, identity_extr, r)
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(4.0, abs=1e-12)

    def test_simulator_box_matches_observation_model(self, wide_intr):
        # Pedestrian at world (2, 1), robot posed so the pedestrian is
        # directly ahead of the camera; nontrivial extrinsic chain.
        extr = robot_pose_extrinsics(0.5, -0.2, math.atan2(1.2, 1.5))
        box = project_person([2.0, 1.0, 0.0], 0.25, 1.7, wide_intr, extr)
        y = process_measurement(box, wide_intr, extr, 0.25)
        H = build_observation_model(extr)
        expected = H @ np.array([2.0, 1.0, 0.3, -0.1])
        np.testing.assert_allclose(y, expected, atol=1e-6)

    def test_squared_translation_variant_is_inconsistent(self, wide_intr):
        # A variant subtracting squared translation components fails the
        # linearity consistency that the implemented form satisfies.
        rng = np.random.default_rng(3)
        extr = Extrinsics(np.eye(3), rng.normal(size=3),
                          np.eye(3), np.array([0.7, 0.0, 1.3]))
        y = nonlinear_observation(extr, [0.3, 4.0], wide_intr, 0.25)
        H = build_observation_model(extr)
        consistent = H @ np.array([0.3, 4.0, 0.0, 0.0])
        np.testing.assert_allclose(y, consistent, atol=1e-9)
        # squared variant: replace -t_x with -t_x**2 and -t_z with -t_z**2
        t = extr.t_robot_cam
        rc_twr = extr.R_robot_cam @ extr.t_world_robot
        y_squared = y + np.array([t[0], t[2]]) - np.array([t[0]**2, t[2]**2])
        assert not np.allclose(y_squared, consistent, atol=1e-6)


    def test_batch_matches_one_box_and_numpy_scalars(self, wide_intr):
        # The batch is plain float arithmetic; it must give the bits of
        # the one-box call and of the formula over numpy float64 scalars.
        def numpy_scalars(box, extr, r):
            u_tl, u_br = np.float64(box.u_tl), np.float64(box.u_br)
            width = u_br - u_tl
            rc_twr = extr.R_robot_cam @ extr.t_world_robot
            return np.array([
                r * (u_tl + u_br - 2.0 * wide_intr.c_x) / (2.0 * width)
                - extr.t_robot_cam[0] - rc_twr[0],
                wide_intr.f_x * r / width - extr.t_robot_cam[2] - rc_twr[2]])

        rng = np.random.default_rng(11)
        infinite = BoundingBox(600.0, 100.0, math.inf, 500.0)
        for trial in range(200):
            extr = (random_extrinsics(rng) if trial % 2 else
                    robot_pose_extrinsics(*rng.normal(scale=5, size=3)))
            r = float(rng.uniform(0.1, 0.5))
            boxes = []
            for _ in range(rng.integers(0, 12)):
                u, w = rng.uniform(-200, 1400), rng.uniform(0.5, 300)
                boxes.append(BoundingBox(float(u), 100.0, float(u + w), 500.0))
            at = int(rng.integers(0, len(boxes) + 1))
            boxes.insert(at, infinite)
            Y, index = process_measurements(boxes, wide_intr, extr, r)
            assert Y.shape == (len(boxes) - 1, 2)
            assert index == [k for k in range(len(boxes)) if k != at]
            for y, k in zip(Y, index):
                assert np.array_equal(y, process_measurement(
                    boxes[k], wide_intr, extr, r))
                assert np.array_equal(y, numpy_scalars(boxes[k], extr, r))
            with pytest.raises(InvalidDetectionError):
                process_measurement(infinite, wide_intr, extr, r)


class TestObservationModel:
    def test_identity_rotations(self):
        H = build_observation_model(
            Extrinsics(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3)))
        np.testing.assert_allclose(H, [[1, 0, 0, 0], [0, 0, 0, 0]])

    def test_forward_camera_rotation(self, forward_extr):
        # robot-x (forward) maps to camera-z, robot-y (left) to camera-(-x)
        H = build_observation_model(forward_extr)
        np.testing.assert_allclose(H, [[0, -1, 0, 0], [1, 0, 0, 0]],
                                   atol=1e-12)

    def test_velocity_columns_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            H = build_observation_model(random_extrinsics(rng))
            np.testing.assert_array_equal(H[:, 2:], 0.0)

    def test_matches_nonlinear_oracle(self, wide_intr):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            extr = random_extrinsics(rng)
            xy = rng.normal(scale=3.0, size=2)
            if extr.world_to_camera([xy[0], xy[1], 0.0])[2] < 0.2:
                continue
            y = nonlinear_observation(extr, xy, wide_intr, 0.25)
            H = build_observation_model(extr)
            np.testing.assert_allclose(
                H @ np.array([xy[0], xy[1], 0.0, 0.0]), y, atol=1e-9)
            checked += 1


class TestProjectPerson:
    def test_width_directly_ahead(self, intr, forward_extr):
        box = project_person([2.5, 0.0, 0.0], 0.25, 1.7, intr, forward_extr)
        assert box.width == pytest.approx(50.0, abs=1e-9)

    def test_out_of_view(self, intr, forward_extr):
        with pytest.raises(NotVisibleError):
            project_person([1.0, 50.0, 0.0], 0.25, 1.7, intr, forward_extr)

    def test_behind_camera(self, intr, forward_extr):
        with pytest.raises(NotVisibleError):
            project_person([-2.0, 0.0, 0.0], 0.25, 1.7, intr, forward_extr)

    def test_lateral_offset_bias_grows(self, wide_intr, forward_extr):
        biases = []
        for offset in (0.0, 0.5, 1.0, 1.5):
            pos = [3.0, offset, 0.0]
            box = project_person(pos, 0.25, 1.7, wide_intr, forward_extr)
            true_z = forward_extr.world_to_camera(pos)[2]
            biases.append(abs(estimate_depth(box, wide_intr, 0.25) - true_z))
        assert all(a < b for a, b in zip(biases, biases[1:]))

    def test_clipped_to_image(self, intr, forward_extr):
        box = project_person([0.5, 0.0, 0.0], 0.25, 1.7, intr, forward_extr)
        assert box.u_tl >= 0 and box.v_tl >= 0
        assert box.u_br <= intr.image_width and box.v_br <= intr.image_height


class TestValidation:
    def test_intrinsics_invariants(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(-1, 500, 320, 240, 640, 480)
        with pytest.raises(GeometryError):
            CameraIntrinsics(500, 500, 700, 240, 640, 480)

    def test_pose_extrinsics_rotations_are_valid(self):
        # The pose path skips re-validation; its rotations must still pass it.
        g._check_rotation(g.FORWARD_CAMERA_ROTATION, "forward")
        for theta in np.linspace(-10.0, 10.0, 41):
            extr = robot_pose_extrinsics(1.0, -2.0, theta)
            g._check_rotation(extr.R_world_robot, "R_world_robot")
            g._check_rotation(extr.R_robot_cam, "R_robot_cam")

    @pytest.mark.parametrize("pose", [(math.nan, 0.0, 0.0),
                                      (0.0, math.inf, 0.0),
                                      (0.0, 0.0, math.nan),
                                      (0.0, 0.0, -math.inf)])
    def test_pose_extrinsics_rejects_non_finite_pose(self, pose):
        with pytest.raises(GeometryError):
            robot_pose_extrinsics(*pose)

    def test_pose_extrinsics_checks_caller_mount(self):
        with pytest.raises(GeometryError):
            robot_pose_extrinsics(0.0, 0.0, 0.0, R_robot_cam=np.eye(3) * 2)
        extr = robot_pose_extrinsics(0.0, 0.0, 0.0, R_robot_cam=np.eye(3),
                                     t_robot_cam=[0, 0, 1])
        np.testing.assert_array_equal(extr.t_robot_cam, [0.0, 0.0, 1.0])
