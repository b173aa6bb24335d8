import itertools
import math

import numpy as np
import pytest

from mpfollow import seqio
from mpfollow.controller import ControlCommand
from mpfollow.geometry import robot_pose_extrinsics
from mpfollow.sim import (
    DriftEvent,
    OcclusionEvent,
    Pedestrian,
    RobotPath,
    Scenario,
    ScenarioError,
    builtin_scenarios,
    generate,
    step_plant,
)


def simple_scenario(**overrides):
    base = dict(
        name="test",
        pedestrians=[Pedestrian(id=0, waypoints=[(0.0, 3.0, 0.0),
                                                 (5.0, 3.0, 0.0)])],
        robot_path=RobotPath([(0.0, 0.0, 0.0, 0.0)]),
        duration=5.0,
        frame_rate=10.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestGenerate:
    def test_frame_count_and_timestamps(self):
        frames = generate(simple_scenario(), seed=0)
        assert len(frames) == 50
        assert frames[0].timestamp == 0.0
        assert frames[13].timestamp == pytest.approx(1.3)
        assert [f.frame_index for f in frames] == list(range(50))

    def test_deterministic_given_seed(self):
        sc = simple_scenario(box_pixel_std=1.0)
        a = generate(sc, seed=3)
        b = generate(sc, seed=3)
        for fa, fb in zip(a, b):
            assert fa.robot_pose == fb.robot_pose
            for da, db in zip(fa.detections, fb.detections):
                np.testing.assert_array_equal(da.box.as_array(),
                                              db.box.as_array())
                np.testing.assert_array_equal(da.descriptor, db.descriptor)

    def test_different_seed_differs(self):
        sc = simple_scenario(box_pixel_std=1.0)
        a = generate(sc, seed=3)
        b = generate(sc, seed=4)
        assert any(not np.array_equal(da.box.as_array(), db.box.as_array())
                   for fa, fb in zip(a, b)
                   for da, db in zip(fa.detections, fb.detections))

    def test_occlusion_removes_exact_frames(self):
        sc = simple_scenario(
            occlusions=[OcclusionEvent(ped_id=0, t_start=1.0, t_end=2.0)])
        frames = generate(sc, seed=0)
        visible = {f.frame_index for f in frames
                   if any(d.person_id == 0 for d in f.detections)}
        # [1.0, 2.0) at 10 Hz removes frames 10..19 inclusive.
        expected_gone = set(range(10, 20))
        assert visible == set(range(50)) - expected_gone

    def test_ground_truth_positions_always_present(self):
        sc = simple_scenario(
            occlusions=[OcclusionEvent(ped_id=0, t_start=0.0, t_end=5.0)])
        frames = generate(sc, seed=0)
        assert all(0 in f.pedestrian_positions for f in frames)
        assert all(not f.detections for f in frames)

    def test_nearer_person_occludes_farther(self):
        # Two people on the optical axis: the nearer box covers the
        # farther one entirely, so only the nearer is detected.
        sc = simple_scenario(pedestrians=[
            Pedestrian(id=0, waypoints=[(0.0, 2.0, 0.0)]),
            Pedestrian(id=1, waypoints=[(0.0, 5.0, 0.0)]),
        ])
        frames = generate(sc, seed=0)
        for f in frames:
            ids = {d.person_id for d in f.detections}
            assert ids == {0}

    def test_out_of_view_person_not_detected(self):
        sc = simple_scenario(pedestrians=[
            Pedestrian(id=0, waypoints=[(0.0, -3.0, 0.0)])])
        frames = generate(sc, seed=0)
        assert all(not f.detections for f in frames)

    def test_drift_changes_descriptor(self):
        sc = simple_scenario(
            pedestrians=[
                Pedestrian(id=0, cluster=0, waypoints=[(0.0, 3.0, 0.0)]),
                Pedestrian(id=1, cluster=1, waypoints=[(0.0, 3.0, -1.0)]),
            ],
            descriptor_noise_std=0.0,
            viewpoint_amplitude=0.0,
            drifts=[DriftEvent(ped_id=0, t_start=1.0, t_end=5.0,
                               toward_cluster=1, amount=1.0, ramp=1.0)])
        frames = generate(sc, seed=0)

        def descs(frame):
            return {d.person_id: d.descriptor for d in frame.detections}

        before = descs(frames[5])
        after = descs(frames[40])   # t = 4.0, fully blended
        assert before[0] @ before[1] < 0.1
        assert after[0] @ after[1] > 0.99

    def test_validation_errors_name_field(self):
        with pytest.raises(ScenarioError, match="frame_rate"):
            generate(simple_scenario(frame_rate=0.0), seed=0)
        with pytest.raises(ScenarioError, match="similarity"):
            generate(simple_scenario(similarity=1.5), seed=0)
        with pytest.raises(ScenarioError, match="target_id"):
            generate(simple_scenario(target_id=9), seed=0)
        with pytest.raises(ScenarioError, match="waypoints"):
            generate(simple_scenario(pedestrians=[
                Pedestrian(id=0, waypoints=[(2.0, 0.0, 0.0),
                                            (1.0, 0.0, 0.0)])]), seed=0)

    @pytest.mark.parametrize("path, field, why", [
        ([], "robot_path", "empty"),
        ([(0.0, 0.0, 0.0, 0.0), (10.0, 1.0, 0.0, 0.0), (5.0, 2.0, 0.0, 0.0)],
         "robot_path", "timestamps not monotone"),
        ([(0.0, 0.0, 0.0)], r"robot_path\[0\]", r"expected \[t, x, y, theta\]"),
        ([(0.0, 0.0, 0.0, math.nan)], r"robot_path\[0\]", "is not finite")])
    def test_robot_path_has_the_waypoint_rule(self, path, field, why):
        # One rule for every waypoint path: a robot path that goes back in
        # time is refused as a pedestrian's is.
        with pytest.raises(ScenarioError, match=rf"^field '{field}': .*{why}"):
            simple_scenario(robot_path=RobotPath(path)).validate()

    @pytest.mark.parametrize("change, field", [
        ({"t_end": 0.5}, "t_end"),
        ({"amount": 3.0}, "amount"), ({"amount": 25.0}, "amount"),
        ({"amount": -0.5}, "amount"), ({"amount": math.nan}, "amount"),
        ({"ramp": -1.0}, "ramp"), ({"ramp": math.inf}, "ramp"),
        ({"ramp": math.nan}, "ramp"),
        ({"t_start": math.nan, "t_end": math.nan}, "t_start"),
        ({"t_start": -math.inf}, "t_start"), ({"t_end": math.inf}, "t_end")])
    def test_drift_out_of_range_names_field(self, change, field):
        # An amount above 1 slerps past the other cluster's mean; a
        # negative amount or ramp, or a time that is not finite, would
        # switch the drift off unseen.
        drift = DriftEvent(**{"ped_id": 0, "t_start": 1.0, "t_end": 4.0,
                              "toward_cluster": 1, "amount": 1.0, **change})
        with pytest.raises(ScenarioError,
                           match=rf"^field 'drifts\[0\]\.{field}': "):
            simple_scenario(drifts=[drift]).validate()

    @pytest.mark.parametrize("t_start, t_end, field", [
        (math.nan, math.nan, "t_start"), (math.nan, 2.0, "t_start"),
        (-math.inf, 2.0, "t_start"), (1.0, math.inf, "t_end"),
        (1.0, math.nan, "t_end")])
    def test_occlusion_time_not_finite_names_field(self, t_start, t_end, field):
        # generate would skip such an occlusion without a word.
        occlusion = OcclusionEvent(0, t_start, t_end)
        with pytest.raises(ScenarioError, match=rf"^field 'occlusions\[0\]"
                           rf"\.{field}': must be finite$"):
            simple_scenario(occlusions=[occlusion]).validate()

    @pytest.mark.parametrize("amount, ramp", [(0.0, 0.0), (1.0, 2.0)])
    def test_drift_bounds_accepted(self, amount, ramp):
        drift = DriftEvent(ped_id=0, t_start=1.0, t_end=1.0, toward_cluster=1,
                           amount=amount, ramp=ramp)
        simple_scenario(drifts=[drift]).validate()

    @pytest.mark.parametrize("std", [0.0, 0.5])
    def test_box_corners_are_floats(self, std):
        # Python floats, not numpy scalars: the tracker's per-box
        # arithmetic runs several times faster on them.
        frames = generate(simple_scenario(box_pixel_std=std), seed=2)
        corners = {type(getattr(d.box, k)) for f in frames for d in f.detections
                   for k in ("u_tl", "v_tl", "u_br", "v_br")}
        assert corners == {float}

    def test_positions_and_pose_are_floats(self, tmp_path):
        # The types a sequence file's values read back as; integer
        # waypoints, held before the first and after the last, too.
        sc = simple_scenario(
            pedestrians=[Pedestrian(id=0, waypoints=[(0, 3, 0), (5, 4, 1)]),
                         Pedestrian(id=1, waypoints=[(1.0, 3.0, -1.0)])],
            robot_path=RobotPath([(0, 0, 0, 0), (2, 1, 0, 1)]))
        frames = generate(sc, seed=0)
        seqio.write_sequence(frames, tmp_path / "seq.jsonl")
        for read in (frames, seqio.read_sequence(tmp_path / "seq.jsonl")):
            values = {type(v) for f in read for v in (
                *f.robot_pose, *itertools.chain(*f.pedestrian_positions.values()))}
            assert values == {float}

    def test_boxes_inside_image(self):
        sc = simple_scenario(box_pixel_std=2.0)
        intr = sc.intrinsics
        for f in generate(sc, seed=5):
            for d in f.detections:
                b = d.box
                assert 0 <= b.u_tl < b.u_br <= intr.image_width
                assert 0 <= b.v_tl < b.v_br <= intr.image_height


class TestPedestrian:
    def test_waypoint_interpolation(self):
        p = Pedestrian(id=0, waypoints=[(0.0, 0.0, 0.0), (2.0, 4.0, -2.0)])
        np.testing.assert_allclose(p.position(1.0), [2.0, -1.0])

    def test_clamped_outside_span(self):
        p = Pedestrian(id=0, waypoints=[(1.0, 1.0, 1.0), (2.0, 3.0, 3.0)])
        np.testing.assert_allclose(p.position(0.0), [1.0, 1.0])
        np.testing.assert_allclose(p.position(9.0), [3.0, 3.0])


class TestStepPlant:
    def test_straight_line(self):
        pose = step_plant((1.0, 2.0, math.pi / 2), ControlCommand(2.0, 0.0),
                          0.5)
        assert pose == pytest.approx((1.0, 3.0, math.pi / 2))

    def test_circular_arc_oracle(self):
        # Against fine Euler integration of the unicycle kinematics.
        v, w, dt = 0.8, 0.6, 2.0
        x, y, th = 0.3, -0.1, 0.4
        n = 2_000_000
        h = dt / n
        ex, ey, eth = x, y, th
        for _ in range(n):
            ex += v * math.cos(eth) * h
            ey += v * math.sin(eth) * h
            eth += w * h
        pose = step_plant((x, y, th), ControlCommand(v, w), dt)
        assert pose[0] == pytest.approx(ex, abs=1e-6)
        assert pose[1] == pytest.approx(ey, abs=1e-6)
        assert pose[2] == pytest.approx(eth, abs=1e-9)

    def test_full_circle_returns_to_start(self):
        v, w = 1.0, 0.5
        pose = step_plant((0.0, 0.0, 0.0), ControlCommand(v, w),
                          2 * math.pi / w)
        assert pose[0] == pytest.approx(0.0, abs=1e-9)
        assert pose[1] == pytest.approx(0.0, abs=1e-9)

    def test_invariant_to_substepping(self):
        cmd = ControlCommand(0.7, -0.9)
        whole = step_plant((0.0, 0.0, 0.3), cmd, 1.0)
        split = (0.0, 0.0, 0.3)
        for _ in range(10):
            split = step_plant(split, cmd, 0.1)
        np.testing.assert_allclose(whole, split, atol=1e-12)


class TestBuiltinScenarios:
    def test_all_generate_and_validate(self):
        for name, sc in builtin_scenarios().items():
            assert sc.name == name
            frames = generate(sc, seed=0)
            assert len(frames) == int(round(sc.duration * sc.frame_rate))

    def test_corridor1_two_long_occlusions_on_target(self):
        sc = builtin_scenarios()["corridor1_like"]
        assert len(sc.occlusions) == 2
        assert all(ev.ped_id == sc.target_id for ev in sc.occlusions)
        assert all(ev.t_end - ev.t_start >= 4.0 for ev in sc.occlusions)
        assert sc.drifts and sc.drifts[0].ped_id == sc.target_id

    def test_room_high_similarity_two_occlusions(self):
        sc = builtin_scenarios()["room_like"]
        assert sc.similarity == pytest.approx(0.9)
        assert len(sc.occlusions) == 2

    def test_corridor2_has_crossing(self):
        # The two pedestrians swap lateral positions around t = 12 s.
        sc = builtin_scenarios()["corridor2_like"]
        p0, p1 = sc.pedestrians
        assert p0.position(0.0)[1] > 0 > p1.position(0.0)[1]
        assert p0.position(20.0)[1] < 0 < p1.position(20.0)[1]
        # At some instant their lateral separation closes below a body width.
        gaps = [abs(p0.position(t)[1] - p1.position(t)[1])
                for t in np.arange(10.0, 16.0, 0.1)]
        assert min(gaps) < 0.3

    def test_range_sweep_spans_band(self):
        sc = builtin_scenarios()["range_sweep"]
        ped = sc.pedestrians[0]
        ranges = [float(np.hypot(*ped.position(t)))
                  for t in np.arange(0.0, sc.duration, 0.1)]
        assert min(ranges) <= 1.0
        assert max(ranges) >= 6.9
