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
from .reid import normalize_descriptor


class ScenarioError(ValueError):
    """Scenario fails validation; message names the offending field."""


DEFAULT_INTRINSICS = CameraIntrinsics(
    f_x=500.0, f_y=500.0, c_x=640.0, c_y=360.0,
    image_width=1280, image_height=720)

OVERLAP_OCCLUSION_THRESHOLD = 0.7  # most of a box a nearer box may hide
MAX_DESCRIPTOR_DIM, MAX_FRAMES = 65536, 1_000_000  # what generate may build


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
    """Values of time-monotone (t, *values) waypoints at t, piecewise linear,
    as floats; held constant before the first and after the last waypoint."""
    if t <= waypoints[0][0]:
        return tuple(map(float, waypoints[0][1:]))
    if t >= waypoints[-1][0]:
        return tuple(map(float, waypoints[-1][1:]))
    for a, b in zip(waypoints, waypoints[1:]):
        if a[0] <= t <= b[0]:
            f = 0.0 if b[0] == a[0] else (t - a[0]) / (b[0] - a[0])
            return tuple(float(u + f * (v - u)) for u, v in zip(a[1:], b[1:]))
    raise AssertionError("unreachable")


def _check_path(rows, field, names):
    """Refuse a waypoint path that is empty, has a row that does not hold
    one finite value per name, or goes back in time."""
    if not rows:
        raise ScenarioError(f"field '{field}': empty")
    for i, row in enumerate(rows):
        if len(row) != len(names):
            raise ScenarioError(f"field '{field}[{i}]': expected [{', '.join(names)}]")
        if not all(map(math.isfinite, row)):
            raise ScenarioError(f"field '{field}[{i}]': {list(row)} is not finite")
    if any(b[0] < a[0] for a, b in zip(rows, rows[1:])):
        raise ScenarioError(f"field '{field}': timestamps not monotone")


@dataclass
class Pedestrian:
    id: int
    waypoints: list                     # [(t, x, y), ...], time-monotone
    radius: float = 0.25
    height: float = 1.7
    cluster: int = 0
    phase_offset: float = 0.0

    def position(self, t):
        return _interpolate(self.waypoints, t)


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
        """self, or ScenarioError naming the first field out of range as a
        scenario file does: a pedestrian or event by its place in its list."""
        def fail(field, why):
            raise ScenarioError(f"field '{field}': {why}")

        if not 0 < self.frame_rate < math.inf:
            fail("frame_rate", "must be positive and finite")
        # generate makes round(duration * frame_rate) frames, 1 to MAX_FRAMES
        if not 0.5 < self.duration * self.frame_rate <= MAX_FRAMES + 0.5:
            fail("duration", "must be positive and give 1 to "
                 f"{MAX_FRAMES} frames at frame_rate")
        if not (0.0 <= self.similarity <= 1.0):
            fail("similarity", "must be in [0, 1]")
        clusters = {p.cluster for p in self.pedestrians} | {
            ev.toward_cluster for ev in self.drifts}
        # SyntheticExtractor needs 2 dimensions per cluster and one more.
        if not 2 * len(clusters) + 1 <= self.descriptor_dim <= MAX_DESCRIPTOR_DIM:
            fail("descriptor_dim", "must be from 2 x clusters + 1 to "
                 f"{MAX_DESCRIPTOR_DIM}")
        for name in ("box_pixel_std", "descriptor_noise_std", "viewpoint_amplitude"):
            if not 0 <= getattr(self, name) < math.inf:
                fail(name, "must be finite and >= 0")
        if not self.pedestrians:
            fail("pedestrians", "at least one required")
        ids = [p.id for p in self.pedestrians]
        if len(set(ids)) != len(ids):
            fail("pedestrians", "duplicate ids")
        if self.target_id not in ids:
            fail("target_id", "no pedestrian with this id")
        for k, p in enumerate(self.pedestrians):
            field = f"pedestrians[{k}]"
            _check_path(p.waypoints, f"{field}.waypoints", ("t", "x", "y"))
            for name in ("radius", "height"):
                if not 0 < getattr(p, name) < math.inf:
                    fail(f"{field}.{name}", "must be in (0, inf)")
        _check_path(self.robot_path.waypoints, "robot_path", ("t", "x", "y", "theta"))
        for key, events in (("occlusions", self.occlusions),
                            ("drifts", self.drifts)):
            for k, ev in enumerate(events):
                if ev.ped_id not in ids:
                    fail(f"{key}[{k}].ped_id", "no pedestrian with this id")
                for name in ("t_start", "t_end"):
                    if not math.isfinite(getattr(ev, name)):
                        fail(f"{key}[{k}].{name}", "must be finite")
                if ev.t_end < ev.t_start:
                    fail(f"{key}[{k}].t_end", "before t_start")
        for k, ev in enumerate(self.drifts):
            # An amount above 1 slerps past the other cluster's mean.
            if not 0.0 <= ev.amount <= 1.0:
                fail(f"drifts[{k}].amount", "must be in [0, 1]")
            if not 0 <= ev.ramp < math.inf:
                fail(f"drifts[{k}].ramp", "must be finite and >= 0")
        return self


@dataclass
class Detection:
    box: BoundingBox
    descriptor: np.ndarray | None = None
    person_id: int | None = None


@dataclass
class FrameRecord:
    frame_index: int
    timestamp: float
    detections: list
    robot_pose: tuple                   # (x, y, theta)
    pedestrian_positions: dict          # id -> (x, y)


class SyntheticExtractor:
    """Generates descriptors for simulated identities.

    Each appearance cluster gets a unit mean vector; every pair of cluster
    means has cosine similarity equal to the configured value. A per-frame
    observation blends the mean with a smoothly drifting viewpoint
    component and isotropic noise, then renormalizes. It needs
    similarity in [0, 1] and dim >= 2 * n_clusters + 1.
    """

    def __init__(self, dim=512, n_clusters=2, similarity=0.0,
                 viewpoint_amplitude=0.1, noise_std=0.05, seed=0):
        self.dim = dim
        self.viewpoint_amplitude = viewpoint_amplitude
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        # Row i of means is m_i = sqrt(s) * e_0 + sqrt(1-s) * e_{i+1}, so
        # every pair of cluster means has cosine similarity exactly s.
        self.means = (math.sqrt(similarity) * np.eye(1, dim)
                      + math.sqrt(1.0 - similarity) * np.eye(n_clusters, dim, k=1))
        # Each cluster drifts along its own viewpoint axis, so viewpoint
        # variation carries no cross-identity signal: cluster i's axis is
        # e_{n_clusters + 1 + i}.
        self._view_axes = np.eye(n_clusters, dim, k=n_clusters + 1)

    def extract(self, cluster, phase=0.0, blend_toward=None, blend=0.0):
        """Descriptor for one observation of a cluster identity.

        phase drives the smooth viewpoint drift; blend slerps the cluster
        mean toward another cluster's mean (appearance-change events).
        """
        effective = cluster
        m = self.means[cluster]
        if blend_toward is not None and blend > 0.0:
            m = _slerp(m, self.means[blend_toward], blend)
            if blend >= 0.5:
                effective = blend_toward
        angle = self.viewpoint_amplitude * math.sin(phase)
        v = math.cos(angle) * m + math.sin(angle) * self._view_axes[effective]
        v = v + self._rng.normal(0.0, self.noise_std, self.dim)
        return normalize_descriptor(v)


def _slerp(a, b, t):
    """Spherical interpolation between unit vectors."""
    dot = float(np.clip(a @ b, -1.0, 1.0))
    omega = math.acos(dot)
    if omega < 1e-9:
        return a.copy()
    so = math.sin(omega)
    return (math.sin((1 - t) * omega) / so) * a + (math.sin(t * omega) / so) * b


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

        positions = {p.id: p.position(t) for p in scenario.pedestrians}
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
            covered = max((geometry.overlap_area(box, other_box)
                           for q, other_box, other_depth in candidates
                           if q.id != p.id and other_depth < depth), default=0.0)
            if covered / (box.width * box.height) > OVERLAP_OCCLUSION_THRESHOLD:
                continue
            if scenario.box_pixel_std > 0:
                box = _jitter_box(box, scenario.box_pixel_std,
                                  scenario.intrinsics, rng)
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
    u_tl, v_tl, u_br, v_br = (box.as_array() + rng.normal(0.0, std, 4)).tolist()
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
    n = max(2, int((t1 - t0) / step_s) + 1)
    for i in range(n):
        t = t0 + (t1 - t0) * i / (n - 1)
        x = x0 + (x1 - x0) * i / (n - 1)
        y = float(rng.uniform(-amplitude, amplitude)) if 0 < i < n - 1 else 0.0
        wps.append((t, x, y))
    return wps


def _two_people(name, duration, similarity, *, target, other, occlusions,
                drifts=()):
    """A static robot watching the target (id 0, cluster 0) and one other
    person (id 1, cluster 1); occlusions are the target's (t_start, t_end)."""
    return Scenario(
        name=name,
        pedestrians=[
            Pedestrian(id=0, cluster=0, waypoints=target),
            Pedestrian(id=1, cluster=1, phase_offset=2.0, waypoints=other),
        ],
        robot_path=RobotPath([(0.0, 0.0, 0.0, 0.0)]),
        duration=duration,
        similarity=similarity,
        box_pixel_std=0.5,
        occlusions=[OcclusionEvent(0, *span) for span in occlusions],
        drifts=list(drifts),
    )


def builtin_scenarios():
    """Named scenarios covering the attribute grid used for evaluation."""
    rng = np.random.default_rng(7)
    out = _lateral_walk(rng, 0.0, 30.0, 0.6, 7.0)
    back = _lateral_walk(rng, 30.0, 60.0, 7.0, 0.6)
    return {sc.name: sc for sc in (
        # Severe long-term occlusion (two events), after a stretch where both
        # people collapse toward a shared indistinct appearance (cluster 2),
        # which floods recent samples with uninformative views. No crossing.
        _two_people(
            "corridor1_like", 60.0, 0.5,
            target=[(0.0, 3.0, 0.6), (60.0, 3.0, 0.6)],
            other=[(0.0, 3.0, -0.8), (60.0, 3.0, -0.8)],
            occlusions=[(20.0, 26.0), (40.0, 46.0)],
            drifts=[DriftEvent(ped_id=0, t_start=10.0, t_end=20.0,
                               toward_cluster=2, amount=1.0, ramp=4.0)]),
        # One long-term occlusion, a mutual crossing, strong distance change.
        _two_people(
            "corridor2_like", 45.0, 0.5,
            target=[(0.0, 2.0, 0.8), (10.0, 4.5, 0.8), (14.0, 4.5, -0.8),
                    (25.0, 2.0, -0.8), (35.0, 5.0, -0.8), (45.0, 2.5, -0.8)],
            other=[(0.0, 2.0, -0.8), (10.0, 4.5, -0.8), (14.0, 4.5, 0.8),
                   (45.0, 4.5, 0.8)],
            occlusions=[(28.0, 32.0)]),
        # One long-term occlusion plus a crossing, milder distance change.
        _two_people(
            "lab_corridor_like", 45.0, 0.5,
            target=[(0.0, 2.5, 0.8), (12.0, 3.5, 0.8), (16.0, 3.5, -0.8),
                    (45.0, 3.0, -0.8)],
            other=[(0.0, 2.5, -0.8), (12.0, 3.5, -0.8), (16.0, 3.5, 0.8),
                   (45.0, 3.5, 0.8)],
            occlusions=[(24.0, 28.0)]),
        # Highly similar appearance, two long-term occlusions, no crossing.
        _two_people(
            "room_like", 60.0, 0.9,
            target=[(0.0, 2.5, 0.6), (60.0, 2.5, 0.6)],
            other=[(0.0, 2.5, -0.8), (60.0, 2.5, -0.8)],
            occlusions=[(15.0, 21.0), (38.0, 44.0)]),
        # Single target sweeping the 0.5-7.0 m range with lateral wander,
        # for the range-accuracy study.
        Scenario(
            name="range_sweep",
            pedestrians=[Pedestrian(id=0, cluster=0, waypoints=out + back[1:])],
            robot_path=RobotPath([(0.0, 0.0, 0.0, 0.0)]),
            duration=60.0,
            similarity=0.0,
            box_pixel_std=1.0,
        ),
    )}
