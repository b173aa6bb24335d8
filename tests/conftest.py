import numpy as np
import pytest

from mpfollow.geometry import CameraIntrinsics, Extrinsics, robot_pose_extrinsics


@pytest.fixture
def intr():
    return CameraIntrinsics(f_x=500.0, f_y=500.0, c_x=320.0, c_y=240.0,
                            image_width=640, image_height=480)


@pytest.fixture
def wide_intr():
    return CameraIntrinsics(f_x=500.0, f_y=500.0, c_x=640.0, c_y=360.0,
                            image_width=1280, image_height=720)


@pytest.fixture
def identity_extr():
    return Extrinsics(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))


@pytest.fixture
def forward_extr():
    # Robot at the world origin, heading +x, forward-looking camera.
    return robot_pose_extrinsics(0.0, 0.0, 0.0)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(RESULTS):
            terminalreporter.write_line(line)


def random_extrinsics(rng):
    """Random valid extrinsics via QR-based random rotations."""
    def rand_rot():
        A = rng.normal(size=(3, 3))
        Q, R = np.linalg.qr(A)
        Q = Q @ np.diag(np.sign(np.diag(R)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] = -Q[:, 0]
        return Q

    return Extrinsics(rand_rot(), rng.normal(size=3),
                      rand_rot(), rng.normal(size=3))
