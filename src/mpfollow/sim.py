"""Deterministic pedestrian scenario simulator.

Pedestrians are cylinders following piecewise-linear waypoint paths; a
robot with a forward-looking camera observes them as noisy bounding
boxes plus synthetic appearance descriptors. Occlusion directives and
appearance-drift events let scenarios reproduce crossing, long-term
occlusion and high-similarity situations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .controller import ControlCommand
from .geometry import BoundingBox, CameraIntrinsics, NotVisibleError
from .reid import SyntheticExtractor


class ScenarioError(ValueError):
    """Scenario fails validation; message names the offending field."""


DEFAULT_INTRINSICS = CameraIntrinsics(
    f_x=500.0, f_y=500.0, c_x=640.0, c_y=360.0,
    image_width=1280, image_height=720)

OVERLAP_OCCLUSION_THRESHOLD = 0.7  # most of a box a nearer box may hide


@dataclass
class OcclusionEvent:
    ped_id: int
    t_start: float
    t_end: float


@dataclass
class DriftEvent:
    """Blend a pedestrian's appearance toward another cluster over [t_start, t_end]."""
    ped_id: int
    t_start: float
    t_end: float
    toward_cluster: int
    amount: float
    ramp: float = 2.0   # seconds to reach full blend

    def blend_at(self, t):
        if t < self.t_start or t > self.t_end:
            return 0.0
        rise = min(1.0, (t - self.t_start) / self.ramp) if self.ramp > 0 else 1.0
        return self.amount * rise


def _interpolate(waypoints, t):
    """Values of time-monotone (t, *values) waypoints at t, piecewise linear.

    Held constant before the first and after the last waypoint.
    """
    if t <= waypoints[0][0]:
        return waypoints[0][1:]
    if t >= waypoints[-1][0]:
        return waypoints[-1][1:]
    for a, b in zip(waypoints, waypoints[1:]):
        if a[0] <= t <= b[0]:
            f = 0.0 if b[0] == a[0] else (t - a[0]) / (b[0] - a[0])
            return tuple(u + f * (v - u) for u, v in zip(a[1:], b[1:]))
    raise AssertionError("unreachable")


def _check_rows(rows, field, names):
    """Refuse a waypoint row that does not hold one finite value per name."""
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise ScenarioError(f"{field}[{i}]: expected [{', '.join(names)}]")
        if not all(map(math.isfinite, row)):
            raise ScenarioError(f"{field}[{i}]: {list(row)} is not finite")


@dataclass
class Pedestrian:
    id: int
    waypoints: list                     # [(t, x, y), ...], time-monotone
    radius: float = 0.25
    height: float = 1.7
    cluster: int = 0
    phase_offset: float = 0.0

    def position(self, t):
        return np.array(_interpolate(self.waypoints, t))


@dataclass
class RobotPath:
    """Scripted robot pose trajectory; single-waypoint paths are static."""
    waypoints: list                     # [(t, x, y, theta), ...]

    def pose(self, t):
        return _interpolate(self.waypoints, t)


@dataclass
class Scenario:
    name: str
    pedestrians: list
    robot_path: RobotPath
    duration: float
    frame_rate: float = 10.0
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    box_pixel_std: float = 0.0
    descriptor_noise_std: float = 0.05
    viewpoint_amplitude: float = 0.1
    similarity: float = 0.0
    descriptor_dim: int = 512
    occlusions: list = field(default_factory=list)
    drifts: list = field(default_factory=list)
    target_id: int = 0

    def validate(self):
        if not 0 < self.frame_rate < math.inf:
            raise ScenarioError("frame_rate: must be positive and finite")
        if not 0 < self.duration < math.inf:
            raise ScenarioError("duration: must be positive and finite")
        if not (0.0 <= self.similarity <= 1.0):
            raise ScenarioError("similarity: must be in [0, 1]")
        clusters = {p.cluster for p in self.pedestrians} | {
            ev.toward_cluster for ev in self.drifts}
        if self.descriptor_dim < 2 * len(clusters) + 1:  # see SyntheticExtractor
            raise ScenarioError("descriptor_dim: too small for the cluster count")
        for name in ("box_pixel_std", "descriptor_noise_std", "viewpoint_amplitude"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ScenarioError(f"{name}: must be finite and >= 0")
        if not self.pedestrians:
            raise ScenarioError("pedestrians: at least one required")
        ids = [p.id for p in self.pedestrians]
        if len(set(ids)) != len(ids):
            raise ScenarioError("pedestrians: duplicate ids")
        if self.target_id not in ids:
            raise ScenarioError("target_id: no pedestrian with this id")
        for k, p in enumerate(self.pedestrians):
            _check_rows(p.waypoints, f"pedestrians[{k}].waypoints", ("t", "x", "y"))
            times = [w[0] for w in p.waypoints]
            if not p.waypoints:
                raise ScenarioError(f"pedestrians[{p.id}].waypoints: empty")
            if any(b < a for a, b in zip(times, times[1:])):
                raise ScenarioError(
                    f"pedestrians[{p.id}].waypoints: timestamps not monotone")
            if not (0 < p.radius < math.inf and 0 < p.height < math.inf):
                raise ScenarioError(
                    f"pedestrians[{p.id}]: radius/height must be in (0, inf)")
        if not self.robot_path.waypoints:
            raise ScenarioError("robot_path: empty")
        _check_rows(self.robot_path.waypoints, "robot_path", ("t", "x", "y", "theta"))
        for ev in self.occlusions:
            if ev.ped_id not in ids:
                raise ScenarioError("occlusions: unknown ped_id")
            if ev.t_end < ev.t_start:
                raise ScenarioError("occlusions: t_end before t_start")
        for ev in self.drifts:
            if ev.ped_id not in ids:
                raise ScenarioError("drifts: unknown ped_id")


@dataclass
class Detection:
    box: BoundingBox
    descriptor: np.ndarray
    person_id: int


@dataclass
class FrameRecord:
    frame_index: int
    timestamp: float
    detections: list
    robot_pose: tuple                   # (x, y, theta)
    pedestrian_positions: dict          # id -> (x, y)


def _coverage(inner: BoundingBox, by: BoundingBox) -> float:
    """Fraction of inner's area covered by the other box."""
    iw = min(inner.u_br, by.u_br) - max(inner.u_tl, by.u_tl)
    ih = min(inner.v_br, by.v_br) - max(inner.v_tl, by.v_tl)
    if iw <= 0 or ih <= 0:
        return 0.0
    return iw * ih / (inner.width * inner.height)


def generate(scenario: Scenario, seed: int):
    """Render a scenario to a list of FrameRecord, deterministically."""
    scenario.validate()
    rng = np.random.default_rng(seed)
    clusters = sorted({p.cluster for p in scenario.pedestrians}
                      | {ev.toward_cluster for ev in scenario.drifts})
    cluster_index = {c: i for i, c in enumerate(clusters)}
    extractor = SyntheticExtractor(
        dim=scenario.descriptor_dim,
        n_clusters=len(clusters),
        similarity=scenario.similarity,
        viewpoint_amplitude=scenario.viewpoint_amplitude,
        noise_std=scenario.descriptor_noise_std,
        seed=seed + 1)

    n_frames = int(round(scenario.duration * scenario.frame_rate))
    frames = []
    for k in range(n_frames):
        t = k / scenario.frame_rate
        rx, ry, rtheta = scenario.robot_path.pose(t)
        extr = geometry.robot_pose_extrinsics(rx, ry, rtheta)

        positions = {p.id: tuple(p.position(t)) for p in scenario.pedestrians}
        occluded = {ev.ped_id for ev in scenario.occlusions
                    if ev.t_start <= t < ev.t_end}

        candidates = []
        for p in scenario.pedestrians:
            x, y = positions[p.id]
            depth = extr.world_to_camera([x, y, 0.0])[2]
            try:
                box = geometry.project_person(
                    [x, y, 0.0], p.radius, p.height, scenario.intrinsics, extr)
            except NotVisibleError:
                continue
            candidates.append((p, box, depth))

        detections = []
        for p, box, depth in candidates:
            if p.id in occluded:
                continue
            covered = max((_coverage(box, other_box)
                           for q, other_box, other_depth in candidates
                           if q.id != p.id and other_depth < depth), default=0.0)
            if covered > OVERLAP_OCCLUSION_THRESHOLD:
                continue
            if scenario.box_pixel_std > 0:
                box = _jitter_box(box, scenario.box_pixel_std,
                                  scenario.intrinsics, rng)
                if box is None:
                    continue
            blend_toward, blend = None, 0.0
            for ev in scenario.drifts:
                if ev.ped_id == p.id:
                    b = ev.blend_at(t)
                    if b > blend:
                        blend = b
                        blend_toward = cluster_index[ev.toward_cluster]
            desc = extractor.extract(
                cluster_index[p.cluster],
                phase=0.7 * t + p.phase_offset,
                blend_toward=blend_toward, blend=blend)
            detections.append(Detection(box, desc, p.id))

        frames.append(FrameRecord(k, t, detections, (rx, ry, rtheta), positions))
    return frames


def _jitter_box(box, std, intr, rng):
    vals = box.as_array() + rng.normal(0.0, std, 4)
    u_tl, v_tl, u_br, v_br = vals
    u_tl = min(max(u_tl, 0.0), intr.image_width - 2.0)
    v_tl = min(max(v_tl, 0.0), intr.image_height - 2.0)
    u_br = min(max(u_br, u_tl + geometry.MIN_BOX_WIDTH), float(intr.image_width))
    v_br = min(max(v_br, v_tl + 1.0), float(intr.image_height))
    return BoundingBox(u_tl, v_tl, u_br, v_br)


def step_plant(pose, command: ControlCommand, dt):
    """Advance a unicycle (x, y, theta) under a constant command for dt.

    Uses the exact constant-twist solution, so a fixed (v, omega) traces
    a circular arc to machine precision regardless of dt.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y, theta = pose
    v, w = command.linear_velocity, command.angular_velocity
    if abs(w) < 1e-12:
        return (x + v * math.cos(theta) * dt,
                y + v * math.sin(theta) * dt,
                theta)
    return (x + v / w * (math.sin(theta + w * dt) - math.sin(theta)),
            y - v / w * (math.cos(theta + w * dt) - math.cos(theta)),
            theta + w * dt)


# ---------------------------------------------------------------------------
# Built-in scenarios mirroring the attribute grid of the custom dataset


def _lateral_walk(rng, t0, t1, x0, x1, amplitude=0.3, step_s=2.0):
    """Waypoints sweeping x0 -> x1 with a seeded random lateral wander."""
    wps = []
    t = t0
    n = max(2, int((t1 - t0) / step_s) + 1)
    for i in range(n):
        t = t0 + (t1 - t0) * i / (n - 1)
        x = x0 + (x1 - x0) * i / (n - 1)
        y = float(rng.uniform(-amplitude, amplitude)) if 0 < i < n - 1 else 0.0
        wps.append((t, x, y))
    return wps


def builtin_scenarios():
    """Named scenarios covering the attribute grid used for evaluation."""
    static_robot = RobotPath([(0.0, 0.0, 0.0, 0.0)])
    scenarios = {}

    # Severe long-term occlusion (two events), preceded by a stretch where
    # both people collapse toward a shared indistinct appearance (cluster 2),
    # flooding recent samples with uninformative observations. No crossing.
    scenarios["corridor1_like"] = Scenario(
        name="corridor1_like",
        pedestrians=[
            Pedestrian(id=0, cluster=0, waypoints=[
                (0.0, 3.0, 0.6), (60.0, 3.0, 0.6)]),
            Pedestrian(id=1, cluster=1, phase_offset=2.0, waypoints=[
                (0.0, 3.0, -0.8), (60.0, 3.0, -0.8)]),
        ],
        robot_path=static_robot,
        duration=60.0,
        similarity=0.5,
        box_pixel_std=0.5,
        drifts=[DriftEvent(ped_id=0, t_start=10.0, t_end=20.0,
                           toward_cluster=2, amount=1.0, ramp=4.0)],
        occlusions=[OcclusionEvent(0, 20.0, 26.0),
                    OcclusionEvent(0, 40.0, 46.0)],
    )

    # One long-term occlusion, a mutual crossing and strong distance change.
    scenarios["corridor2_like"] = Scenario(
        name="corridor2_like",
        pedestrians=[
            Pedestrian(id=0, cluster=0, waypoints=[
                (0.0, 2.0, 0.8), (10.0, 4.5, 0.8), (14.0, 4.5, -0.8),
                (25.0, 2.0, -0.8), (35.0, 5.0, -0.8), (45.0, 2.5, -0.8)]),
            Pedestrian(id=1, cluster=1, phase_offset=2.0, waypoints=[
                (0.0, 2.0, -0.8), (10.0, 4.5, -0.8), (14.0, 4.5, 0.8),
                (45.0, 4.5, 0.8)]),
        ],
        robot_path=static_robot,
        duration=45.0,
        similarity=0.5,
        box_pixel_std=0.5,
        occlusions=[OcclusionEvent(0, 28.0, 32.0)],
    )

    # One long-term occlusion plus a crossing, milder distance change.
    scenarios["lab_corridor_like"] = Scenario(
        name="lab_corridor_like",
        pedestrians=[
            Pedestrian(id=0, cluster=0, waypoints=[
                (0.0, 2.5, 0.8), (12.0, 3.5, 0.8), (16.0, 3.5, -0.8),
                (45.0, 3.0, -0.8)]),
            Pedestrian(id=1, cluster=1, phase_offset=2.0, waypoints=[
                (0.0, 2.5, -0.8), (12.0, 3.5, -0.8), (16.0, 3.5, 0.8),
                (45.0, 3.5, 0.8)]),
        ],
        robot_path=static_robot,
        duration=45.0,
        similarity=0.5,
        box_pixel_std=0.5,
        occlusions=[OcclusionEvent(0, 24.0, 28.0)],
    )

    # Highly similar appearance, two long-term occlusions, no crossing.
    scenarios["room_like"] = Scenario(
        name="room_like",
        pedestrians=[
            Pedestrian(id=0, cluster=0, waypoints=[
                (0.0, 2.5, 0.6), (60.0, 2.5, 0.6)]),
            Pedestrian(id=1, cluster=1, phase_offset=2.0, waypoints=[
                (0.0, 2.5, -0.8), (60.0, 2.5, -0.8)]),
        ],
        robot_path=static_robot,
        duration=60.0,
        similarity=0.9,
        box_pixel_std=0.5,
        occlusions=[OcclusionEvent(0, 15.0, 21.0),
                    OcclusionEvent(0, 38.0, 44.0)],
    )

    # Single target sweeping the 0.5-7.0 m range with lateral wander,
    # for the range-accuracy study.
    rng = np.random.default_rng(7)
    out = _lateral_walk(rng, 0.0, 30.0, 0.6, 7.0)
    back = _lateral_walk(rng, 30.0, 60.0, 7.0, 0.6)
    scenarios["range_sweep"] = Scenario(
        name="range_sweep",
        pedestrians=[Pedestrian(id=0, cluster=0, waypoints=out + back[1:])],
        robot_path=static_robot,
        duration=60.0,
        similarity=0.0,
        box_pixel_std=1.0,
    )
    return scenarios
