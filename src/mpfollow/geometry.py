"""Camera model, coordinate transforms and width-based range estimation.

Frame conventions used throughout:
  world  : z up, arbitrary fixed origin
  robot  : x forward, y left, z up
  camera : z forward (optical axis), x right, y down

All transforms are of the form  p_dst = R @ p_src + t; where the tracker
reads them they are summed in floats, as a BLAS matmul may fuse terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Invalid geometric input (degenerate box, bad calibration, ...)."""


class NotVisibleError(GeometryError):
    """Point lies behind or outside the camera frustum."""


# Conventional robot->camera rotation for a forward-looking camera:
# camera-x = -robot-y, camera-y = -robot-z, camera-z = robot-x.
FORWARD_CAMERA_ROTATION = np.array(
    [[0.0, -1.0, 0.0],
     [0.0, 0.0, -1.0],
     [1.0, 0.0, 0.0]]
)

_MIN_DEPTH = 0.1  # meters; closer points are treated as not visible
MIN_BOX_WIDTH = 1.0  # pixels; a narrower box is not a detection
MAX_MAGNITUDE = 1e50  # of a number read or a length set; its squares are finite


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics. f_y/c_y are only needed by the simulator."""

    f_x: float
    f_y: float
    c_x: float
    c_y: float
    image_width: int
    image_height: int

    def __post_init__(self):
        if not (0 < self.f_x < math.inf and 0 < self.f_y < math.inf):
            raise GeometryError("focal lengths must be positive and finite")
        if not (0 < self.c_x < self.image_width):
            raise GeometryError("c_x must lie inside the image")
        if not (0 < self.c_y < self.image_height):
            raise GeometryError("c_y must lie inside the image")


def _check_rotation(R, name):
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise GeometryError(f"{name} must be 3x3")
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-9):
        raise GeometryError(f"{name} is not orthonormal")
    if not math.isclose(np.linalg.det(R), 1.0, abs_tol=1e-9):
        raise GeometryError(f"{name} must have determinant +1")
    return R


@dataclass(frozen=True)
class Extrinsics:
    """World->robot and robot->camera rigid transforms, (3, 3) and (3,) arrays,
    unchecked: seqio.load_calibration and Tracker check a mount."""

    R_world_robot: np.ndarray
    t_world_robot: np.ndarray
    R_robot_cam: np.ndarray
    t_robot_cam: np.ndarray

    def world_to_camera(self, p_world):
        """Full rigid chain: world point -> camera frame."""
        p_world = np.asarray(p_world, dtype=float).reshape(3)
        p_robot = self.R_world_robot @ p_world + self.t_world_robot
        return self.R_robot_cam @ p_robot + self.t_robot_cam


def robot_pose_extrinsics(x, y, theta, R_robot_cam=FORWARD_CAMERA_ROTATION,
                          t_robot_cam=(0.0, 0.0, 0.0)):
    """Extrinsics for a robot at world pose (x, y, heading theta).

    The world->robot transform inverts the robot pose; the camera mount
    defaults to a forward-looking camera at the robot origin. This runs
    every frame, so a caller's mount is passed on unchecked: it is checked
    once where it enters.
    """
    if not all(map(math.isfinite, (x, y, theta))):
        raise GeometryError(f"robot pose ({x}, {y}, {theta}) is not finite")
    c, s = math.cos(theta), math.sin(theta)
    R_wr = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])  # Rz^T
    t_wr = np.array([-(c * x + s * y), s * x - c * y, 0.0])
    return Extrinsics(R_wr, t_wr, np.asarray(R_robot_cam, dtype=float),
                      np.asarray(t_robot_cam, dtype=float).reshape(3))


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box, top-left (u_tl, v_tl) to bottom-right (u_br, v_br)."""

    u_tl: float
    v_tl: float
    u_br: float
    v_br: float

    def __post_init__(self):
        if not (self.u_br > self.u_tl and self.v_br > self.v_tl):
            raise GeometryError(f"degenerate box {self}")

    @property
    def width(self):
        return self.u_br - self.u_tl

    @property
    def height(self):
        return self.v_br - self.v_tl

    @property
    def center(self):
        return ((self.u_tl + self.u_br) / 2.0, (self.v_tl + self.v_br) / 2.0)

    def as_array(self):
        return np.array([self.u_tl, self.v_tl, self.u_br, self.v_br])


def overlap_area(a: BoundingBox, b: BoundingBox) -> float:
    """Area of the intersection of two boxes; 0.0 if they do not overlap."""
    iw = min(a.u_br, b.u_br) - max(a.u_tl, b.u_tl)
    ih = min(a.v_br, b.v_br) - max(a.v_tl, b.v_tl)
    return 0.0 if iw <= 0 or ih <= 0 else iw * ih


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes."""
    inter = overlap_area(a, b)
    union = a.width * a.height + b.width * b.height - inter
    return inter / union if inter else 0.0


def estimate_depth(box: BoundingBox, intr: CameraIntrinsics, r: float) -> float:
    """Camera-frame depth of a person of body width r from their box width."""
    if r <= 0:
        raise GeometryError("body width must be positive")
    return intr.f_x * r / box.width


def process_measurements(boxes, intr: CameraIntrinsics, extr: Extrinsics, r: float):
    """Convert raw boxes to the 2-vector measurements of the linear model.

    Entry 0 derives from the horizontal box center, entry 1 from the
    width-based depth; both are shifted into the rotated-world-position
    space that the observation matrix maps states into. Returns the finite
    measurements, as (y0, y1) float pairs, and the indices of their boxes.
    The frame constants are computed once; per box, plain float arithmetic
    rounds exactly as numpy float64 scalars do.
    """
    tx, ty, tz = extr.t_world_robot.tolist()
    rc_twr_x, rc_twr_z = (a * tx + b * ty + c * tz
                          for a, b, c in extr.R_robot_cam.tolist()[::2])
    t_rc = extr.t_robot_cam.tolist()
    two_cx, fr = 2.0 * intr.c_x, intr.f_x * r
    rows, index = [], []
    for k, box in enumerate(boxes):
        width = box.u_br - box.u_tl
        y0 = (r * (box.u_tl + box.u_br - two_cx) / (2.0 * width)
              - t_rc[0] - rc_twr_x)
        y1 = fr / width - t_rc[2] - rc_twr_z
        if math.isfinite(y0) and math.isfinite(y1):
            rows.append((y0, y1))
            index.append(k)
    return rows, index


def process_measurement(box: BoundingBox, intr: CameraIntrinsics,
                        extr: Extrinsics, r: float) -> np.ndarray:
    """The measurement of one box; GeometryError if not finite."""
    y, _ = process_measurements([box], intr, extr, r)
    if not y:
        raise GeometryError("non-finite processed measurement")
    return np.array(y[0])


def build_observation_model(extr: Extrinsics) -> np.ndarray:
    """2x4 matrix H mapping state [x, y, xdot, ydot] to the expected observation.

    Rows are the camera-x and camera-z rows of R_robot_cam @ R_world_robot,
    restricted to the planar position columns; velocity columns are zero.
    """
    wr = extr.R_world_robot.tolist()
    H = np.zeros((2, 4))
    for k, row in enumerate(extr.R_robot_cam.tolist()[::2]):
        for j in range(2):
            H[k, j] = row[0] * wr[0][j] + row[1] * wr[1][j] + row[2] * wr[2][j]
    return H


def position_block(H):
    """The block M of H = [M 0] as floats (a, b, c, d); ValueError unless
    H's velocity columns are zero."""
    (a, b, *v0), (c, d, *v1) = np.asarray(H, dtype=float).tolist()
    if any(v0) or any(v1):
        raise ValueError("H must have zero velocity columns")
    return a, b, c, d


def check_mount(R_robot_cam, name):
    """R_robot_cam as an array; GeometryError naming it unless it is a rotation
    with |det M| > 1e-9 for H = [M 0] (|det M| <= 1: below that, a track
    seeded as M^-1 y is mostly rounding). The robot's heading only rotates
    M's columns, so det M is the mount's: checked once, where it enters."""
    R = _check_rotation(R_robot_cam, name)
    a, b, c, d = position_block(build_observation_model(
        robot_pose_extrinsics(0, 0, 0, R)))
    if not abs(a * d - b * c) > 1e-9:
        raise GeometryError(f"{name} sees the ground plane edge-on: the "
                            "camera's x and z axes do not span it")
    return R


def project_person(world_pos, r: float, h: float, intr: CameraIntrinsics,
                   extr: Extrinsics) -> BoundingBox:
    """Project a person (width r, height h, feet at world_pos) to a pixel box.

    The horizontal extent models the person as a flat card of width r
    facing the camera, so a person directly ahead projects to exactly
    f_x * r / depth pixels; off-axis persons pick up the range bias
    inherent to width-based estimation.
    """
    world_pos = np.asarray(world_pos, dtype=float).reshape(3)
    base_c = extr.world_to_camera(world_pos)
    top_c = extr.world_to_camera(world_pos + np.array([0.0, 0.0, h]))
    mid_c = 0.5 * (base_c + top_c)
    if mid_c[2] < _MIN_DEPTH:
        raise NotVisibleError("person behind the camera")

    # Card endpoints perpendicular to the viewing ray in the camera x-z plane.
    d = math.hypot(mid_c[0], mid_c[2])
    if d < _MIN_DEPTH:
        raise NotVisibleError("person too close to the camera center")
    n = np.array([mid_c[2] / d, -mid_c[0] / d])  # unit normal to the ray
    left = np.array([mid_c[0], mid_c[2]]) - 0.5 * r * n
    right = np.array([mid_c[0], mid_c[2]]) + 0.5 * r * n
    if left[1] < _MIN_DEPTH or right[1] < _MIN_DEPTH:
        raise NotVisibleError("person edge behind the camera")

    u_tl = intr.f_x * left[0] / left[1] + intr.c_x
    u_br = intr.f_x * right[0] / right[1] + intr.c_x
    v_tl = intr.f_y * top_c[1] / top_c[2] + intr.c_y
    v_br = intr.f_y * base_c[1] / base_c[2] + intr.c_y
    if v_tl > v_br:
        v_tl, v_br = v_br, v_tl

    u_tl = max(u_tl, 0.0)
    v_tl = max(v_tl, 0.0)
    u_br = min(u_br, float(intr.image_width))
    v_br = min(v_br, float(intr.image_height))
    if u_br - u_tl < MIN_BOX_WIDTH or v_br - v_tl <= 1e-9:
        raise NotVisibleError("person outside the image")
    return BoundingBox(float(u_tl), float(v_tl), float(u_br), float(v_br))
