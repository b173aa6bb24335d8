"""Multi-person tracking from width-based box measurements.

Pipeline per frame: drop mutually-overlapping boxes, convert the survivors
to 2-vector measurements, predict all tracks with a constant-velocity
model, solve a global nearest neighbor assignment on the measurement-space
distance, then run Kalman updates and track lifecycle bookkeeping.

The Kalman algebra (predict, then a Joseph-form update; Bar-Shalom, Li &
Kirubarajan, 2001) is written once, over stacks of rows: the tracker runs
it on all its tracks at once and the per-track ``predict`` and ``update``
run it on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    Extrinsics,
    build_observation_model,
    iou,
    process_measurement,  # not called here: framebench's tracer hooks this name
    process_measurements,
)


@dataclass
class TrackerConfig:
    delta_iou: float = 0.5          # mutual-overlap rejection threshold
    process_noise_std: tuple = (0.02, 0.05)  # (position m, velocity m/s)
    measurement_noise_std: float = 0.1       # meters
    gate_distance: float = 1.0               # meters, Euclidean gate
    max_missed: int = 30                     # frames before track deletion
    r_body: float = 0.25                     # assumed body width, meters
    min_hits: int = 2                        # matches before a track is confirmed
    init_position_std: float = 0.5
    init_velocity_std: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.delta_iou <= 1.0:
            raise ValueError("delta_iou must be in [0, 1]")
        if min(self.process_noise_std) <= 0 or self.measurement_noise_std <= 0:
            raise ValueError("noise stds must be positive")
        if not 0 < self.r_body < math.inf:
            raise ValueError("r_body must be positive and finite")


@dataclass
class TrackState:
    """Kalman state of one person: planar position and velocity, world frame.

    Inside a Tracker, s and P are views of the tracker's stacked bank and
    change in place at every step: copy what you keep.
    """

    id: int
    s: np.ndarray                 # [x, y, xdot, ydot]
    P: np.ndarray                 # 4x4 covariance
    age: int = 0
    missed: int = 0
    hits: int = 0
    last_box: BoundingBox | None = None
    valid: bool = True

    def confirmed(self, min_hits):
        return self.hits >= min_hits


@dataclass
class DetectionSet:
    boxes: list
    frame_index: int = 0
    timestamp: float = 0.0
    indices: list | None = None   # each box's index in the frame; None: 0..n-1


def filter_overlaps(dets: DetectionSet, delta_iou: float) -> DetectionSet:
    """Keep only boxes whose largest IoU with any other box is below threshold.

    IoU is symmetric, so each unordered pair is computed once and counts
    for both boxes. In a sweep over boxes sorted by u_tl, a box starting
    at or right of a's right edge ends a's pairs: its IoU with a is 0.
    The result's indices point into the frame's boxes.
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
    source = dets.indices if dets.indices is not None else range(len(boxes))
    return replace(dets, boxes=[boxes[i] for i in keep],
                   indices=[source[i] for i in keep])


def _transition(dt):
    F = np.eye(4)
    F[0, 2] = dt
    F[1, 3] = dt
    return F


def _process_noise(dt, cfg: TrackerConfig):
    sp, sv = cfg.process_noise_std
    return np.diag([sp**2, sp**2, sv**2, sv**2]) * dt


def _transpose(A):
    return A.swapaxes(-1, -2)


# The stacked kernels keep the per-track operation order: F @ s as a
# matrix-vector product per row, (F @ S[..., None])[..., 0], and never
# S @ F.T, whose sums round differently.

def _predict_rows(S, P, dt, cfg: TrackerConfig):
    """Constant-velocity prediction of stacked means (n, 4) and covariances (n, 4, 4)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    F = _transition(dt)
    S = (F @ S[..., None])[..., 0]
    P = F @ P @ F.T + _process_noise(dt, cfg)
    return S, 0.5 * (P + _transpose(P))


def _update_rows(S, P, Y, H, measurement_noise_std):
    """Kalman update of stacked rows by measurements Y (n, 2).

    Returns (S, P, valid); a row whose innovation is not finite is not
    valid and its returned state is meaningless.
    """
    R = np.eye(2) * measurement_noise_std**2
    innovation = Y - (H @ S[..., None])[..., 0]
    valid = np.isfinite(innovation).all(axis=1)
    K = P @ H.T @ np.linalg.inv(H @ P @ H.T + R)
    S = S + (K @ innovation[..., None])[..., 0]
    I_KH = np.eye(4) - K @ H
    # Joseph form keeps the covariance symmetric positive semi-definite.
    P = I_KH @ P @ _transpose(I_KH) + K @ R @ _transpose(K)
    return S, 0.5 * (P + _transpose(P)), valid


def predict(track: TrackState, dt: float, cfg: TrackerConfig) -> TrackState:
    """Constant-velocity prediction of one track over dt seconds."""
    S, P = _predict_rows(track.s[None], track.P[None], dt, cfg)
    return replace(track, s=S[0], P=P[0])


def _min_cost_assignment(cost):
    """Rows and columns of a minimum-cost assignment of a finite cost matrix.

    Shortest augmenting paths over dual variables (Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE Trans. AES 52(4), 2016),
    with the arithmetic, scan order and tie-breaking of
    ``scipy.optimize.linear_sum_assignment``, so both pick the same
    assignment. Importing scipy.optimize for this one call added 49 MB to
    the process. Returns two lists of indices, rows ascending.
    """
    transpose = cost.shape[1] < cost.shape[0]
    C = (cost.T if transpose else cost).tolist()
    nr = len(C)
    # A search scans from the last column down and on a tie prefers a free
    # one, so when each row's first minimum is in a column of its own, each
    # search stops there at once and leaves v at 0: it picks these columns.
    col4row = [row.index(min(row)) for row in C]
    if len(set(col4row)) < nr:
        col4row = _augmenting_paths(C)
    if transpose:
        cols = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[c] for c in cols], cols
    return list(range(nr)), col4row


def _augmenting_paths(C):
    """Columns of the rows of C (nr <= nc) by one augmenting path per row."""
    nr, nc = len(C), len(C[0])
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # Shortest augmenting path from row cur to a free column (sink).
        min_val = 0.0
        # Scanned from the last column down, as scipy does: a constant
        # matrix then gives the identity assignment.
        remaining = list(range(nc - 1, -1, -1))
        rows_seen, cols_seen = [False] * nr, [False] * nc
        shortest = [math.inf] * nc
        i, sink = cur, -1
        while sink == -1:
            index, lowest = -1, math.inf
            rows_seen[i] = True
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
            cols_seen[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(nr):
            if rows_seen[i] and i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if cols_seen[j]:
                v[j] -= min_val - shortest[j]
        j = sink
        while True:  # flip the path's assignments
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def associate(tracks, measurements, H, gate):
    """Global nearest neighbor assignment of measurements to tracks.

    Cost is the squared Euclidean distance between each track's expected
    observation H @ s and each measurement; pairs whose cost exceeds the
    squared gate are broken into unmatched.

    Returns (pairs, unmatched_track_indices, unmatched_measurement_indices)
    with pairs as (track_index, measurement_index) tuples.
    """
    if not tracks or not len(measurements):
        return [], list(range(len(tracks))), list(range(len(measurements)))
    expected = (H @ np.array([t.s for t in tracks])[..., None])[..., 0]
    d = expected[:, None, :] - np.asarray(measurements)[None, :, :]
    # Each cost is the dot product d @ d of its pair, bit for bit; a sum of
    # squares rounds differently and can change which costs tie.
    cost = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    if not np.isfinite(cost).all():
        raise ValueError("association cost is not finite")
    rows, cols = _min_cost_assignment(cost)
    gate_sq = gate * gate
    pairs = [(i, j) for i, j in zip(rows, cols) if cost[i, j] <= gate_sq]
    matched_t = {i for i, _ in pairs}
    matched_m = {j for _, j in pairs}
    unmatched_t = [i for i in range(len(tracks)) if i not in matched_t]
    unmatched_m = [j for j in range(len(measurements)) if j not in matched_m]
    return pairs, unmatched_t, unmatched_m


def update(track: TrackState, y, H, measurement_noise_std) -> TrackState:
    """Kalman measurement update with observation matrix H."""
    S, P, valid = _update_rows(track.s[None], track.P[None],
                               np.asarray(y, dtype=float)[None], H,
                               measurement_noise_std)
    if not valid[0]:
        return replace(track, valid=False)
    return replace(track, s=S[0], P=P[0])


class Tracker:
    """Stateful multi-person tracker over a detection sequence.

    The means and covariances of all tracks live in one bank, an (n, 4)
    and an (n, 4, 4) array in the order of ``tracks``; each track's s and
    P are views of its row. A frame predicts the whole bank at once and
    updates all matched rows at once. The bank is restacked only when a
    track is born or dies.
    """

    def __init__(self, intr: CameraIntrinsics, extr: Extrinsics,
                 cfg: TrackerConfig | None = None):
        self.intr = intr
        self.cfg = cfg or TrackerConfig()
        self.tracks: list[TrackState] = []
        self._S = np.empty((0, 4))
        self._P = np.empty((0, 4, 4))
        self._next_id = 1
        self._last_timestamp = None
        self.set_extrinsics(extr)

    def set_extrinsics(self, extr: Extrinsics):
        """Install the current robot pose; H depends on it."""
        self.extr = extr
        self.H = build_observation_model(extr)

    def _new_track(self, y, box):
        # Invert the position block of H to seed the world position.
        A = self.H[:, :2]
        try:
            pos = np.linalg.solve(A, y)
        except np.linalg.LinAlgError:
            pos, *_ = np.linalg.lstsq(A, y, rcond=None)
        s = np.array([pos[0], pos[1], 0.0, 0.0])
        P = np.diag([self.cfg.init_position_std**2, self.cfg.init_position_std**2,
                     self.cfg.init_velocity_std**2, self.cfg.init_velocity_std**2])
        track = TrackState(id=self._next_id, s=s, P=P, hits=1, last_box=box)
        self._next_id += 1
        return track

    def _restack(self):
        """Copy the tracks' states into a new bank and point them at it."""
        S = np.empty((len(self.tracks), 4))
        P = np.empty((len(self.tracks), 4, 4))
        for k, t in enumerate(self.tracks):
            S[k], P[k] = t.s, t.P
            t.s, t.P = S[k], P[k]
        self._S, self._P = S, P

    def step(self, dets: DetectionSet):
        """Process one frame.

        Returns (tracks, associations) where associations maps track id to
        the index in dets.boxes of the box matched this frame, for
        confirmed tracks only. The tracks are live: the next step changes
        them in place. A frame whose timestamp is not after the previous
        one raises ValueError and leaves the tracker as it was.
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
        measurements, found = process_measurements(
            kept.boxes, self.intr, self.extr, cfg.r_body)
        det_index = [kept.indices[k] for k in found]

        if self.tracks:
            self._S[:], self._P[:] = _predict_rows(self._S, self._P, dt, cfg)
        for t in self.tracks:
            t.age += 1

        pairs, unmatched_t, unmatched_m = associate(
            self.tracks, measurements, self.H, cfg.gate_distance)

        associations = {}
        if pairs:
            rows = np.array([i for i, _ in pairs])
            S, P, valid = _update_rows(
                self._S[rows], self._P[rows],
                measurements[[j for _, j in pairs]], self.H,
                cfg.measurement_noise_std)
            self._S[rows[valid]] = S[valid]
            self._P[rows[valid]] = P[valid]
            for (i, j), ok in zip(pairs, valid):
                t = self.tracks[i]
                t.valid = bool(ok)
                t.missed = 0
                t.hits += 1
                t.last_box = dets.boxes[det_index[j]]
                if t.valid and t.confirmed(cfg.min_hits):
                    associations[t.id] = det_index[j]
        for i in unmatched_t:
            t = self.tracks[i]
            t.missed += 1
            if not t.confirmed(cfg.min_hits):
                t.valid = False  # tentative track lost before confirmation
        for j in unmatched_m:
            self.tracks.append(
                self._new_track(measurements[j], dets.boxes[det_index[j]]))

        alive = [t for t in self.tracks
                 if t.valid and t.missed <= cfg.max_missed]
        if unmatched_m or len(alive) < len(self.tracks):
            self.tracks = alive
            self._restack()
        return self.tracks, associations

    def confirmed_tracks(self):
        return [t for t in self.tracks if t.confirmed(self.cfg.min_hits)]
