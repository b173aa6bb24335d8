"""Multi-person tracking from width-based box measurements.

Pipeline per frame: drop mutually-overlapping boxes, convert the survivors
to 2-vector measurements, predict all tracks with a constant-velocity
model, solve a global nearest neighbor assignment on the measurement-space
distance, then run Kalman updates and track lifecycle bookkeeping.

Each track is one Kalman filter (predict, then a Joseph-form update;
Bar-Shalom, Li & Kirubarajan, 2001) in Python floats, for H = [M 0] as
``build_observation_model`` gives and R = sigma^2 I, with the 2x2
innovation covariance inverted in closed form. Python rounds each product
and sum on its own, so the outputs do not depend on numpy's BLAS kernel.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from . import geometry  # robot_pose_extrinsics is hooked there by framebench
from .geometry import (
    MAX_MAGNITUDE,
    CameraIntrinsics,
    Extrinsics,
    build_observation_model,
    check_mount,
    iou,
    position_block,
    process_measurement,  # not called here: framebench's tracer hooks this name
    process_measurements,
)


PROCESS_NOISE_STD = (0.02, 0.05)  # (position m, velocity m/s) per sqrt(s)
MAX_MISSED = 30                    # unmatched frames before track deletion
MIN_HITS = 2                       # matches before a track is confirmed
INIT_POSITION_STD = 0.5            # meters
INIT_VELOCITY_STD = 1.0            # m/s


@dataclass
class TrackerConfig:
    delta_iou: float = 0.5          # mutual-overlap rejection threshold
    measurement_noise_std: float = 0.1       # meters
    gate_distance: float = 1.0               # meters, Euclidean gate
    r_body: float = 0.25                     # assumed body width, meters

    def __post_init__(self):
        if not 0.0 < self.delta_iou <= 1.0:
            raise ValueError("delta_iou must be in (0, 1]")
        for name in ("measurement_noise_std", "gate_distance", "r_body"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
            if getattr(self, name) > MAX_MAGNITUDE:
                raise ValueError(f"{name} must be at most {MAX_MAGNITUDE:g}")


_UPPER = np.triu_indices(4)  # the 10 distinct covariance entries, row by row
_INIT_COV = (INIT_POSITION_STD**2, 0.0, 0.0, 0.0, INIT_POSITION_STD**2, 0.0,
             0.0, INIT_VELOCITY_STD**2, 0.0, INIT_VELOCITY_STD**2)


@dataclass(init=False, eq=False)
class TrackState:
    """Kalman state of one person: planar position and velocity, world frame.

    The filter keeps floats: ``mean`` [x, y, xdot, ydot] and ``cov``, a tuple
    of P's 10 upper-triangle entries row by row, so a P given is kept as its
    symmetric part (None: a new track's). Tracks predicted and updated alike
    share one cov. ``s`` and ``P`` are numpy snapshots, built on each read.
    """

    id: int
    s: np.ndarray                 # [x, y, xdot, ydot]
    P: np.ndarray                 # 4x4 covariance
    missed: int = 0
    hits: int = 0

    def __init__(self, id, s, P=None, missed=0, hits=0):
        self.id, self.missed, self.hits = id, missed, hits
        self.mean = np.asarray(s, dtype=float).reshape(4).tolist()
        self.cov = _INIT_COV
        if P is not None:
            P = np.asarray(P, dtype=float).reshape(4, 4)
            self.cov = tuple((0.5 * (P + P.T))[_UPPER].tolist())

    s = property(lambda self: np.array(self.mean))

    @property
    def P(self):
        P = np.zeros((4, 4))
        P[_UPPER] = self.cov
        return P + np.triu(P, 1).T

    def confirmed(self):
        return self.hits >= MIN_HITS


@dataclass
class DetectionSet:
    boxes: list
    timestamp: float = 0.0
    indices: list | None = None   # by filter_overlaps: each box's index in the frame


def filter_overlaps(dets: DetectionSet, delta_iou: float) -> DetectionSet:
    """Keep only boxes whose largest IoU with any other box is below threshold.

    IoU is symmetric, so each unordered pair is computed once and counts
    for both boxes. In a sweep over boxes sorted by u_tl, a box starting
    at or right of a's right edge ends a's pairs: its IoU with a is 0.
    The result's indices point into dets.boxes.
    """
    boxes = dets.boxes
    worst = [0.0] * len(boxes)
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].u_tl)
    for pos, i in enumerate(order):
        a = boxes[i]
        for j in order[pos + 1:]:
            if boxes[j].u_tl >= a.u_br:
                break
            v = iou(a, boxes[j])
            if v > worst[i]:
                worst[i] = v
            if v > worst[j]:
                worst[j] = v
    keep = [i for i, w in enumerate(worst) if w < delta_iou]
    return DetectionSet([boxes[i] for i in keep], dets.timestamp, keep)


_QP, _QV = (std * std for std in PROCESS_NOISE_STD)  # process noise per second


def _predict_mean(mean, dt):
    """F s for F = [[I, dt I], [0, I]]."""
    x0, x1, x2, x3 = mean
    return [x0 + dt * x2, x1 + dt * x3, x2, x3]


def _predict_cov(cov, dt):
    """F P F^T + Q dt, block by block."""
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
    # P = [[A, B], [B^T, C]]: B' = B + dt C and A' = A + dt B^T + dt B'.
    b00, b01 = p02 + dt * p22, p03 + dt * p23
    b10, b11 = p12 + dt * p23, p13 + dt * p33
    return (p00 + dt * p02 + dt * b00 + _QP * dt, p01 + dt * p12 + dt * b01,
            b00, b01, p11 + dt * p13 + dt * b11 + _QP * dt, b10, b11,
            p22 + _QV * dt, p23, p33 + _QV * dt)


def _innovation(mean, y, M):
    """y - H s for H = [M 0], M = (a, b, c, d) row by row."""
    a, b, c, d = M
    return y[0] - (a * mean[0] + b * mean[1]), y[1] - (c * mean[0] + d * mean[1])


def _correct(mean, z, K):
    """s + K z: the mean updated by the innovation z with the gain K."""
    x0, x1, x2, x3 = mean
    z0, z1 = z
    k00, k01, k10, k11, k20, k21, k30, k31 = K
    return [x0 + k00 * z0 + k01 * z1, x1 + k10 * z0 + k11 * z1,
            x2 + k20 * z0 + k21 * z1, x3 + k30 * z0 + k31 * z1]


def _gain(cov, M, r):
    """Joseph-form update of P for H = [M 0], M = [[a, b], [c, d]], R = r I:
    the gain K, row by row, and the new cov."""
    a, b, c, d = M
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
    # G = P H^T; S = H G + R, inverted in closed form; K = G S^-1.
    g00, g01 = p00 * a + p01 * b, p00 * c + p01 * d
    g10, g11 = p01 * a + p11 * b, p01 * c + p11 * d
    g20, g21 = p02 * a + p12 * b, p02 * c + p12 * d
    g30, g31 = p03 * a + p13 * b, p03 * c + p13 * d
    s00, s01 = a * g00 + b * g10 + r, a * g01 + b * g11
    s11 = c * g01 + d * g11 + r
    det = s00 * s11 - s01 * s01
    k00, k01 = (g00 * s11 - g01 * s01) / det, (g01 * s00 - g00 * s01) / det
    k10, k11 = (g10 * s11 - g11 * s01) / det, (g11 * s00 - g10 * s01) / det
    k20, k21 = (g20 * s11 - g21 * s01) / det, (g21 * s00 - g20 * s01) / det
    k30, k31 = (g30 * s11 - g31 * s01) / det, (g31 * s00 - g30 * s01) / det
    # Joseph form (I - KH) P (I - KH)^T + r K K^T, PSD for any K, as
    # W - V K^T + r K K^T with W = (I - KH) P = P - K G^T and V = W H^T.
    w00, w01 = p00 - (k00 * g00 + k01 * g01), p01 - (k00 * g10 + k01 * g11)
    w02, w03 = p02 - (k00 * g20 + k01 * g21), p03 - (k00 * g30 + k01 * g31)
    w10, w11 = p01 - (k10 * g00 + k11 * g01), p11 - (k10 * g10 + k11 * g11)
    w12, w13 = p12 - (k10 * g20 + k11 * g21), p13 - (k10 * g30 + k11 * g31)
    w20, w21 = p02 - (k20 * g00 + k21 * g01), p12 - (k20 * g10 + k21 * g11)
    w22, w23 = p22 - (k20 * g20 + k21 * g21), p23 - (k20 * g30 + k21 * g31)
    w30, w31 = p03 - (k30 * g00 + k31 * g01), p13 - (k30 * g10 + k31 * g11)
    w33 = p33 - (k30 * g30 + k31 * g31)
    v00, v01 = w00 * a + w01 * b, w00 * c + w01 * d
    v10, v11 = w10 * a + w11 * b, w10 * c + w11 * d
    v20, v21 = w20 * a + w21 * b, w20 * c + w21 * d
    v30, v31 = w30 * a + w31 * b, w30 * c + w31 * d
    return ((k00, k01, k10, k11, k20, k21, k30, k31),
            (w00 - (v00 * k00 + v01 * k01) + r * (k00 * k00 + k01 * k01),
             w01 - (v00 * k10 + v01 * k11) + r * (k00 * k10 + k01 * k11),
             w02 - (v00 * k20 + v01 * k21) + r * (k00 * k20 + k01 * k21),
             w03 - (v00 * k30 + v01 * k31) + r * (k00 * k30 + k01 * k31),
             w11 - (v10 * k10 + v11 * k11) + r * (k10 * k10 + k11 * k11),
             w12 - (v10 * k20 + v11 * k21) + r * (k10 * k20 + k11 * k21),
             w13 - (v10 * k30 + v11 * k31) + r * (k10 * k30 + k11 * k31),
             w22 - (v20 * k20 + v21 * k21) + r * (k20 * k20 + k21 * k21),
             w23 - (v20 * k30 + v21 * k31) + r * (k20 * k30 + k21 * k31),
             w33 - (v30 * k30 + v31 * k31) + r * (k30 * k30 + k31 * k31)))


def predict(track: TrackState, dt: float) -> TrackState:
    """Constant-velocity prediction of one track over dt seconds."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    new = copy.copy(track)
    new.mean, new.cov = _predict_mean(track.mean, dt), _predict_cov(track.cov, dt)
    return new


def _min_cost_assignment(cost):
    """Rows and columns of a minimum-cost assignment of a finite cost matrix.

    Shortest augmenting paths over dual variables (Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE Trans. AES 52(4), 2016),
    with the arithmetic, scan order and tie-breaking of
    ``scipy.optimize.linear_sum_assignment``, so both pick the same
    assignment. Importing scipy.optimize for this one call added 49 MB to
    the process. Takes the cost's rows; returns index lists, rows ascending.
    """
    transpose = len(cost[0]) < len(cost)
    C = [list(row) for row in (zip(*cost) if transpose else cost)]
    nr, nc = len(C), len(C[0])  # nr <= nc: each row of C gets a column
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    # A search scans from the last column down and on a tie prefers a free
    # one, so while v is all 0, the search from a row whose first minimum
    # is in a free column stops there at once: u is that minimum and v
    # stays 0. The leading rows for which that holds are settled so.
    first = 0
    for row in C:
        lowest = min(row)
        j = row.index(lowest)
        if row4col[j] != -1:
            break
        u[first], col4row[first], row4col[j] = lowest, j, first
        first += 1
    for cur in range(first, nr):
        # Shortest augmenting path from row cur to a free column (sink).
        min_val = 0.0
        # Scanned from the last column down, as scipy does: a constant
        # matrix then gives the identity assignment.
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [], []
        shortest = [math.inf] * nc
        i, sink = cur, -1
        while sink == -1:
            index, lowest = -1, math.inf
            rows_seen.append(i)
            row, ui = C[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # On a tie, prefer a column that ends the path.
                if shortest[j] < lowest or (shortest[j] == lowest
                                            and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:  # rows_seen[0] is cur
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        j = sink
        while True:  # flip the path's assignments
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row


def associate(tracks, measurements, H, gate):
    """Global nearest neighbor assignment of measurements to tracks.

    Cost is the squared Euclidean distance between each track's expected
    observation H s and each measurement (a pair of numbers); pairs whose
    cost exceeds the squared gate are broken into unmatched.

    Returns (pairs, unmatched_track_indices, unmatched_measurement_indices)
    with pairs as (track_index, measurement_index) tuples.
    """
    if not tracks or not len(measurements):
        return [], list(range(len(tracks))), list(range(len(measurements)))
    a, b, c, d = position_block(H)
    cost = []
    for t in tracks:
        x0, x1 = t.mean[0], t.mean[1]
        e0, e1 = a * x0 + b * x1, c * x0 + d * x1
        row = []
        for y0, y1 in measurements:
            d0, d1 = e0 - y0, e1 - y1
            row.append(d0 * d0 + d1 * d1)
        # A finite sum has finite terms; an overflowed one is checked per term.
        if not (math.isfinite(sum(row)) or all(map(math.isfinite, row))):
            raise ValueError("association cost is not finite")
        cost.append(row)
    rows, cols = _min_cost_assignment(cost)
    pairs = [(i, j) for i, j in zip(rows, cols) if cost[i][j] <= gate * gate]
    unmatched_t = sorted(set(range(len(tracks))) - {i for i, _ in pairs})
    unmatched_m = sorted(set(range(len(measurements))) - {j for _, j in pairs})
    return pairs, unmatched_t, unmatched_m


def update(track: TrackState, y, H, measurement_noise_std) -> TrackState:
    """Kalman measurement update with observation matrix H = [M 0]."""
    M = position_block(H)
    z = _innovation(track.mean, [float(v) for v in y], M)
    if not (math.isfinite(z[0]) and math.isfinite(z[1])):
        raise ValueError("innovation is not finite")
    new = copy.copy(track)
    K, new.cov = _gain(track.cov, M, measurement_noise_std**2)
    new.mean = _correct(track.mean, z, K)
    return new


class Tracker:
    """Stateful multi-person tracker. Its camera mount, extr with the robot
    at the origin, is checked once, here; each frame only poses the robot."""

    def __init__(self, intr: CameraIntrinsics, extr: Extrinsics,
                 cfg: TrackerConfig | None = None):
        check_mount(extr.R_robot_cam, "R_robot_cam")
        self.intr = intr
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[TrackState] = []
        self._next_id = 1
        self._last_timestamp = None
        self.extr, self.H = extr, build_observation_model(extr)

    def set_pose(self, x, y, theta):
        """Install the next frame's robot pose on the mount; H depends on it."""
        self.extr = geometry.robot_pose_extrinsics(
            x, y, theta, self.extr.R_robot_cam, self.extr.t_robot_cam)
        self.H = build_observation_model(self.extr)

    def _new_track(self, y, M):
        # Seed the world position by inverting M, of rank 2 by check_mount.
        a, b, c, d = M
        det = a * d - b * c
        y0, y1 = y
        s = [(d * y0 - b * y1) / det, (a * y1 - c * y0) / det, 0.0, 0.0]
        track = TrackState(id=self._next_id, s=s, hits=1)
        self._next_id += 1
        return track

    def step(self, dets: DetectionSet):
        """Process one frame.

        Returns (tracks, associations) where associations maps track id to
        the index in dets.boxes of the box matched this frame, for
        confirmed tracks only. The tracks are the tracker's own: the next
        step updates them. A frame whose timestamp is not after the
        previous one raises ValueError and leaves the tracker as it was.
        """
        cfg = self.cfg
        dt = None  # the first frame has no tracks to predict
        if self._last_timestamp is not None:
            dt = dets.timestamp - self._last_timestamp
            if not dt > 0:
                raise ValueError(
                    f"timestamp {dets.timestamp} is not after the previous "
                    f"frame's {self._last_timestamp}")
        self._last_timestamp = dets.timestamp

        kept = filter_overlaps(dets, cfg.delta_iou)
        ys, found = process_measurements(
            kept.boxes, self.intr, self.extr, cfg.r_body)
        det_index = [kept.indices[k] for k in found]

        # Tracks that share a covariance object share its prediction and
        # gain, computed once a frame, keyed by identity: equality would merge
        # 0.0 and -0.0. Each memo entry holds its key, so no id is reused.
        predicted, gains = {}, {}
        for t in self.tracks:
            t.mean = _predict_mean(t.mean, dt)
            if id(t.cov) not in predicted:
                predicted[id(t.cov)] = t.cov, _predict_cov(t.cov, dt)
            t.cov = predicted[id(t.cov)][1]

        pairs, unmatched_t, unmatched_m = associate(
            self.tracks, ys, self.H, cfg.gate_distance)

        associations = {}
        M, r = position_block(self.H), cfg.measurement_noise_std**2
        for i, j in pairs:
            t = self.tracks[i]
            # associate refuses a non-finite cost, and each innovation is
            # minus its pair's cost vector, so every innovation is finite.
            if id(t.cov) not in gains:
                gains[id(t.cov)] = t.cov, _gain(t.cov, M, r)
            K, t.cov = gains[id(t.cov)][1]
            t.mean = _correct(t.mean, _innovation(t.mean, ys[j], M), K)
            t.missed = 0
            t.hits += 1
            if t.confirmed():
                associations[t.id] = det_index[j]
        for i in unmatched_t:
            self.tracks[i].missed += 1
        for j in unmatched_m:
            self.tracks.append(self._new_track(ys[j], M))

        # A tentative track dies at its first miss, a confirmed one at its
        # first miss beyond MAX_MISSED.
        self.tracks = [t for t in self.tracks
                       if t.missed <= (MAX_MISSED if t.confirmed() else 0)]
        return self.tracks, associations

    def confirmed_tracks(self):
        return [t for t in self.tracks if t.confirmed()]
