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
        self._seen_positives = 0
        self._rng = rng or np.random.default_rng(0)

    def add(self, sample: AppearanceSample):
        self.short_term.append(sample)
        if self.mode == "SLT" and sample.label == 1:
            self._reservoir_add(sample)

    def _reservoir_add(self, sample):
        self._seen_positives += 1
        if len(self.long_term) < self.long_capacity:
            self.long_term.append(sample)
        else:
            k = self._rng.integers(0, self._seen_positives)
            if k < self.long_capacity:
                self.long_term[k] = sample

    def samples(self):
        return list(self.short_term) + list(self.long_term)

    def __len__(self):
        return len(self.short_term) + len(self.long_term)


def update_samples(sample_set: SampleSet, samples) -> SampleSet:
    """Insert labeled samples, honoring the FIFO/reservoir policy in place."""
    for s in samples:
        sample_set.add(s)
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
    """Fit (w, b) in the centred dual: w = X̃ᵀ(X̃X̃ᵀ + λI)⁻¹(y − ȳ), b = ȳ − x̄·w.

    One n×n solve for n samples, bias unregularized (Saunders, Gammerman &
    Vovk, ICML 1998). Returns False, classifier untouched, if a class is missing.
    """
    samples = sample_set.samples()
    labels = np.array([s.label for s in samples])
    if len(samples) == 0 or labels.min() == labels.max():
        return False
    X = np.stack([s.descriptor for s in samples])
    x_mean, y_mean = X.mean(axis=0), labels.mean()
    Xc = X - x_mean
    alpha = np.linalg.solve(Xc @ Xc.T + clf.lam * np.eye(len(samples)),
                            labels - y_mean)
    clf.w = Xc.T @ alpha
    clf.b = float(y_mean - x_mean @ clf.w)
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
                        max_negatives=3, negative_order=None):
    """Build labeled samples for one FOLLOWING frame.

    The target track yields a positive; up to max_negatives other tracks
    yield negatives, taken in negative_order (e.g. nearest in the image)
    when given, otherwise by ascending track id.
    """
    if target_track_id not in track_descriptors:
        return []
    samples = [AppearanceSample(track_descriptors[target_track_id], 1,
                                frame_index, target_track_id)]
    others = [t for t in track_descriptors if t != target_track_id]
    if negative_order is not None:
        ordered = [t for t in negative_order if t in others]
    else:
        ordered = sorted(others)
    for tid in ordered[:max_negatives]:
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
