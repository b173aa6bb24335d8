"""Online target re-identification.

A unit-normalized global descriptor represents each detected person. A
ridge regression classifier is retrained online from a bounded sample
set; the sample set either keeps only the most recent samples (ST mode)
or splits its budget between a recent FIFO and a uniform reservoir of
historic target samples (SLT mode). A two-state machine decides when the
target is trusted (FOLLOWING) and when it must be searched for (RE_ID).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


# Negative samples harvested per FOLLOWING frame.
MAX_NEGATIVES = 3


class ReidError(ValueError):
    pass


class UntrainedClassifierError(ReidError):
    """score() called before any successful training."""


def normalize_descriptor(v):
    """Unit-normalize a feature vector; rejects zero and non-finite norms."""
    v = np.asarray(v, dtype=float).reshape(-1)
    norm = np.linalg.norm(v)
    if norm <= 0 or not np.isfinite(norm):
        raise ReidError("descriptor must be a finite nonzero vector")
    return v / norm


@dataclass(frozen=True)
class AppearanceSample:
    descriptor: np.ndarray
    label: int            # +1 target, 0 non-target
    frame_index: int
    track_id: int


@dataclass
class ReidConfig:
    delta_switch: float = 0.35
    delta_id: float = 0.60
    n_id: int = 5
    lam: float = 1e-2
    capacity: int = 64
    mode: str = "ST"                 # "ST" or "SLT"

    def __post_init__(self):
        if self.mode not in ("ST", "SLT"):
            raise ReidError("mode must be ST or SLT")
        for name in ("delta_switch", "delta_id"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ReidError(f"{name} must be in [0, 1]")
        if not 0 < self.lam < math.inf:
            raise ReidError("lam must be positive and finite")
        if self.n_id < 1 or self.capacity < 1:
            raise ReidError("n_id and capacity must be at least 1")


class SampleSet:
    """Bounded training set with short-term FIFO and optional long-term reservoir.

    In SLT mode the long-term half (capacity // 2 slots) holds only target
    samples, maintained by uniform reservoir sampling over every target
    sample ever seen, so historic appearance survives long stretches of
    unhelpful recent data.

    The set also owns its design matrix: the first len(self) rows of X
    hold the descriptors in use (a target sample kept by both policies
    fills two rows), y their labels and G = X Xᵀ their Gram matrix. A new
    sample takes the next free row, or the row of the sample it evicts,
    and each insert recomputes the Gram rows and columns it wrote, so G
    is never accumulated and carries no rounding drift.
    """

    def __init__(self, capacity, mode="ST", rng=None):
        self.mode = mode
        if mode == "SLT":
            self.long_capacity = capacity // 2
            self.short_capacity = capacity - self.long_capacity
        else:
            self.long_capacity = 0
            self.short_capacity = capacity
        self.short_term = deque(maxlen=self.short_capacity)
        self.long_term = []
        self._short_rows = deque()
        self._long_rows = []
        self._seen_positives = 0
        self._rng = rng or np.random.default_rng(0)
        self.X = None                 # (capacity, d), allocated by the first add
        self.y = np.zeros(capacity)
        self.G = np.zeros((capacity, capacity))

    def add(self, sample: AppearanceSample):
        self.extend((sample,))

    def extend(self, samples):
        """Insert samples in order, then refresh the Gram rows they wrote."""
        descriptors = [np.asarray(s.descriptor, dtype=float) for s in samples]
        if not descriptors:
            return
        d = descriptors[0].size if self.X is None else self.X.shape[1]
        for v in descriptors:
            if v.shape != (d,):
                raise ReidError(f"descriptor of shape {v.shape}, expected "
                                f"({d},) like the first sample")
        if self.X is None:
            self.X = np.zeros((len(self.y), d))
        written = set()
        for sample, v in zip(samples, descriptors):
            for row in self._place(sample):
                self.X[row] = v
                self.y[row] = sample.label
                written.add(row)
        rows = sorted(written)
        n = len(self)
        g = self.X[:n] @ self.X[rows].T
        self.G[:n, rows] = g
        self.G[rows, :n] = g.T

    def _place(self, sample):
        """Rows the sample takes: its FIFO row, plus a reservoir row if kept."""
        if len(self.short_term) == self.short_capacity:
            row = self._short_rows.popleft()
        else:
            row = len(self)
        self.short_term.append(sample)
        self._short_rows.append(row)
        rows = [row]
        if self.mode == "SLT" and sample.label == 1:
            self._seen_positives += 1
            if len(self.long_term) < self.long_capacity:
                rows.append(len(self))
                self.long_term.append(sample)
                self._long_rows.append(rows[-1])
            else:
                k = self._rng.integers(0, self._seen_positives)
                if k < self.long_capacity:
                    self.long_term[k] = sample
                    rows.append(self._long_rows[k])
        return rows

    def samples(self):
        return list(self.short_term) + list(self.long_term)

    def __len__(self):
        return len(self.short_term) + len(self.long_term)


def update_samples(sample_set: SampleSet, samples) -> SampleSet:
    """Insert labeled samples, honoring the FIFO/reservoir policy in place."""
    sample_set.extend(samples)
    return sample_set


@dataclass
class RidgeClassifier:
    """Closed-form ridge regression on labels {0, +1}; bias unregularized."""

    lam: float = 1e-2
    w: np.ndarray | None = None
    b: float = 0.0

    @property
    def trained(self):
        return self.w is not None


def train(clf: RidgeClassifier, sample_set: SampleSet) -> bool:
    """Fit (w, b) in the bordered dual: w = Xᵀα, where

        [G + λI  1] [α]   [y]
        [1ᵀ      0] [b] = [0]

    with G = XXᵀ kept current by the sample set. The last row is the
    stationarity condition of the unregularized bias, so this is the
    centred-dual ridge (Saunders, Gammerman & Vovk, ICML 1998) with one
    (n+1)×(n+1) solve for n samples and no centring. Returns False,
    classifier untouched, if a class is missing.
    """
    n = len(sample_set)
    y = sample_set.y[:n]
    if n == 0 or y.min() == y.max():
        return False
    A = np.ones((n + 1, n + 1))
    A[:n, :n] = sample_set.G[:n, :n]
    A[:n, :n].flat[::n + 1] += clf.lam
    A[n, n] = 0.0
    solution = np.linalg.solve(A, np.append(y, 0.0))
    clf.w = solution[:n] @ sample_set.X[:n]
    clf.b = float(solution[n])
    return True


def score(clf: RidgeClassifier, descriptor) -> float:
    """Target score of a descriptor, clamped to [0, 1]."""
    if not clf.trained:
        raise UntrainedClassifierError("classifier has not been trained")
    raw = float(clf.w @ descriptor + clf.b)
    return min(1.0, max(0.0, raw))


class FollowerMode(Enum):
    FOLLOWING = "FOLLOWING"
    RE_ID = "RE_ID"


@dataclass
class FollowerState:
    mode: FollowerMode = FollowerMode.RE_ID
    target_track_id: int | None = None
    consecutive_hits: dict = field(default_factory=dict)


def step_state_machine(state: FollowerState, track_scores: dict,
                       visible_tracks, cfg: ReidConfig):
    """Advance the FOLLOWING/RE_ID machine by one frame.

    track_scores maps track id -> classifier score for every visible track.
    Returns (state, target_track_id or None); the target id is reported
    only while FOLLOWING.
    """
    visible = set(visible_tracks)

    if state.mode is FollowerMode.FOLLOWING:
        tid = state.target_track_id
        if tid not in visible or track_scores.get(tid, 0.0) < cfg.delta_switch:
            state.mode = FollowerMode.RE_ID
            state.target_track_id = None
            state.consecutive_hits = {}
            return state, None
        return state, tid

    # RE_ID: every visible track is a candidate; a track missing from the
    # frame breaks its consecutive streak.
    hits = {}
    for tid in visible:
        if track_scores.get(tid, 0.0) > cfg.delta_id:
            hits[tid] = state.consecutive_hits.get(tid, 0) + 1
        else:
            hits[tid] = 0
    state.consecutive_hits = {t: min(h, cfg.n_id) for t, h in hits.items()}

    winners = [t for t, h in hits.items() if h >= cfg.n_id]
    if winners:
        winners.sort(key=lambda t: (-track_scores.get(t, 0.0), t))
        target = winners[0]
        state.mode = FollowerMode.FOLLOWING
        state.target_track_id = target
        state.consecutive_hits = {}
        return state, target
    return state, None


def label_frame_samples(target_track_id, track_descriptors, frame_index,
                        negative_order):
    """Build labeled samples for one FOLLOWING frame.

    The target track yields a positive; up to MAX_NEGATIVES other tracks
    yield negatives, taken in negative_order (e.g. nearest in the image).
    """
    if target_track_id not in track_descriptors:
        return []
    samples = [AppearanceSample(track_descriptors[target_track_id], 1,
                                frame_index, target_track_id)]
    ordered = [t for t in negative_order
               if t != target_track_id and t in track_descriptors]
    for tid in ordered[:MAX_NEGATIVES]:
        samples.append(AppearanceSample(track_descriptors[tid], 0,
                                        frame_index, tid))
    return samples


# ---------------------------------------------------------------------------
# Descriptor extractors


class PassthroughExtractor:
    """Normalizes the descriptors of a sequence (checked when it loaded)."""

    def extract(self, vector):
        return normalize_descriptor(vector)


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
        self.similarity = similarity
        self.viewpoint_amplitude = viewpoint_amplitude
        self.noise_std = noise_std
        self._rng = np.random.default_rng(seed)
        # Means m_i = sqrt(s) * u + sqrt(1-s) * e_i with u, e_i orthonormal,
        # which gives every pair cosine similarity exactly s.
        shared = np.zeros(dim)
        shared[0] = 1.0
        self.means = []
        for i in range(n_clusters):
            e = np.zeros(dim)
            e[i + 1] = 1.0
            self.means.append(math.sqrt(similarity) * shared
                              + math.sqrt(1.0 - similarity) * e)
        # Each cluster drifts along its own viewpoint axis, so viewpoint
        # variation carries no cross-identity signal.
        self._view_axes = []
        for i in range(n_clusters):
            axis = np.zeros(dim)
            axis[n_clusters + 1 + i] = 1.0
            self._view_axes.append(axis)

    def mean(self, cluster):
        return self.means[cluster].copy()

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
