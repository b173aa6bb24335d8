import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpfollow import reid, sim
from mpfollow.geometry import BoundingBox
from mpfollow.pipeline import FollowPipeline
from mpfollow.reid import (
    MAX_CAPACITY,
    MAX_NEGATIVES,
    MIN_LAM,
    AppearanceSample,
    FollowerMode,
    FollowerState,
    PassthroughExtractor,
    ReidConfig,
    ReidError,
    RidgeClassifier,
    SampleSet,
    UntrainedClassifierError,
    label_frame_samples,
    normalize_descriptor,
    score,
    step_state_machine,
    train,
    update_samples,
)
from mpfollow.sim import SyntheticExtractor


def ridge_gradient_descent(X, labels, lam, lr=None, iters=200000, tol=1e-12):
    """Independent iterative solver for the same ridge objective
    (squared loss, L2 on weights only, free bias)."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    if lr is None:
        lr = 0.9 / (np.linalg.norm(X, 2) ** 2 + lam + n)
    for _ in range(iters):
        resid = X @ w + b - labels
        gw = 2 * X.T @ resid + 2 * lam * w
        gb = 2 * resid.sum()
        w_new = w - lr * gw
        b_new = b - lr * gb
        if max(np.max(np.abs(w_new - w)), abs(b_new - b)) < tol:
            w, b = w_new, b_new
            break
        w, b = w_new, b_new
    return w, b


def stacked_lstsq_ridge(X, labels, lam):
    """Independent direct solver: least squares over [[X, 1], [sqrt(lam) I, 0]],
    whose normal equations are those of the free-bias ridge objective."""
    n, d = X.shape
    A = np.block([[X, np.ones((n, 1))],
                  [math.sqrt(lam) * np.eye(d), np.zeros((d, 1))]])
    theta = np.linalg.lstsq(A, np.concatenate([labels, np.zeros(d)]),
                            rcond=None)[0]
    return theta[:d], theta[d]


def reference_train(clf, sample_set):
    """The centred dual over the stacked samples, as train() computed it
    before the sample set kept its Gram matrix: w = X̃ᵀ(X̃X̃ᵀ + λI)⁻¹(y − ȳ),
    b = ȳ − x̄·w."""
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


def assert_design_matrix_current(ss):
    """G is X Xᵀ over the rows in use, and those rows (with their labels)
    are the samples' descriptors as a multiset."""
    n = len(ss)
    X = ss.X[:n]
    np.testing.assert_allclose(ss.G[:n, :n], X @ X.T, rtol=0, atol=1e-12)
    rows = sorted((tuple(x), y) for x, y in zip(X.tolist(), ss.y[:n]))
    assert rows == sorted((tuple(s.descriptor.tolist()), s.label)
                          for s in ss.samples())


def make_sample(v, label, frame=0, tid=0):
    return AppearanceSample(normalize_descriptor(v), label, frame, tid)


def fill(sample_set, samples):
    update_samples(sample_set, samples)
    return sample_set


class TestDescriptors:
    def test_passthrough_normalizes(self):
        ext = PassthroughExtractor()
        v = ext.extract([2.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(v, [1, 0, 0, 0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ReidError):
            normalize_descriptor([0.0, 0.0])

    def test_scaling_invariance(self):
        v = np.array([0.3, -1.2, 2.0, 0.5])
        np.testing.assert_allclose(normalize_descriptor(v),
                                   normalize_descriptor(10.0 * v), atol=1e-12)

    def test_synthetic_deterministic(self):
        a = SyntheticExtractor(dim=32, n_clusters=2, similarity=0.5, seed=9)
        b = SyntheticExtractor(dim=32, n_clusters=2, similarity=0.5, seed=9)
        np.testing.assert_array_equal(a.extract(0, phase=1.0),
                                      b.extract(0, phase=1.0))

    def test_synthetic_similarity_controls_cosine(self):
        # Monte Carlo: averaging 1000 draws cancels viewpoint drift and
        # noise, so the mean descriptors recover the cluster-mean cosine.
        def mean_cosine(similarity):
            ext = SyntheticExtractor(dim=64, n_clusters=2,
                                     similarity=similarity,
                                     noise_std=0.05, seed=3)
            a = np.mean([ext.extract(0, phase=0.01 * k)
                         for k in range(1000)], axis=0)
            b = np.mean([ext.extract(1, phase=0.01 * k + 2.0)
                         for k in range(1000)], axis=0)
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        assert 0.9 <= mean_cosine(0.95) <= 1.0
        assert mean_cosine(0.0) <= 0.3

    def test_cluster_mean_cosine_exact(self):
        for s in (0.0, 0.3, 0.9):
            ext = SyntheticExtractor(dim=16, n_clusters=3, similarity=s)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert ext.means[i] @ ext.means[j] == pytest.approx(s)


class TestReidConfig:
    def test_capacity_bounded_before_any_allocation(self):
        # SampleSet allocates its capacity^2 Gram matrix up front; at a
        # capacity of 1,000,000 that is 7.28 TiB. Only configs are built here.
        ReidConfig(capacity=MAX_CAPACITY)
        for capacity in (MAX_CAPACITY + 1, 1_000_000):
            with pytest.raises(ReidError, match="^capacity must be at most "
                               f"{MAX_CAPACITY}$"):
                ReidConfig(capacity=capacity)

    def test_lam_floor(self):
        ReidConfig(lam=MIN_LAM)
        for lam in (np.nextafter(MIN_LAM, 0), 1e-16, 1e-300, 0.0, -1.0,
                    math.nan, math.inf):
            with pytest.raises(ReidError, match="^lam must be finite and at "
                               f"least {MIN_LAM:g}$"):
                ReidConfig(lam=lam)

    @pytest.mark.parametrize("lam", [0.0, 1e-16, math.nan, math.inf])
    def test_classifier_keeps_the_lam_floor(self, lam):
        # One rule at both entries: at 1e-16, train on an SLT set holding
        # one target and one negative sample hit a singular solve.
        RidgeClassifier(lam=MIN_LAM)
        with pytest.raises(ReidError, match="^lam must be finite and at "
                           f"least {MIN_LAM:g}$"):
            RidgeClassifier(lam=lam)

    def test_slt_runs_at_the_lam_floor(self):
        # SLT keeps a target sample in two rows of X, so G has equal rows;
        # below the floor (at 1e-16 on this scenario) the solve is singular.
        sc = sim.builtin_scenarios()["corridor1_like"]
        pipe = FollowPipeline(sc.intrinsics, reid_cfg=ReidConfig(
            mode="SLT", lam=MIN_LAM), target_person_id=sc.target_id, seed=0)
        results = [pipe.process_frame(f) for f in sim.generate(sc, 0)]
        assert any(r.target_track_id is not None for r in results)
        assert any(r.scores for r in results)
        assert all(math.isfinite(s) for r in results
                   for s in r.scores.values())


class TestSampleSet:
    def test_st_fifo(self):
        ss = SampleSet(4, "ST")
        samples = [make_sample([1, i + 1], 1, frame=i) for i in range(6)]
        fill(ss, samples)
        assert [s.frame_index for s in ss.samples()] == [2, 3, 4, 5]

    def test_slt_budget_split(self):
        ss = SampleSet(64, "SLT", rng=np.random.default_rng(0))
        for i in range(500):
            ss.add(make_sample([1, i + 1], i % 2, frame=i))
            assert len(ss.short_term) <= 32
            assert len(ss.long_term) <= 32
            assert len(ss) <= 64

    def test_long_term_positives_only(self):
        ss = SampleSet(8, "SLT", rng=np.random.default_rng(1))
        for i in range(50):
            ss.add(make_sample([1, i + 1], i % 2, frame=i))
        assert all(s.label == 1 for s in ss.long_term)

    def test_reservoir_uniformity(self):
        # Each of 1000 streamed samples should land in the 32-slot
        # reservoir with probability 32/1000.
        n_stream, slots, trials = 1000, 32, 200
        counts = np.zeros(n_stream)
        for trial in range(trials):
            ss = SampleSet(64, "SLT", rng=np.random.default_rng(trial))
            for i in range(n_stream):
                ss.add(make_sample([1, i + 1], 1, frame=i))
            for s in ss.long_term:
                counts[s.frame_index] += 1
        # Aggregate into 10 bins of 100 consecutive stream positions:
        # each bin should collect ~trials * slots / 10 items. A skewed
        # (non-uniform) reservoir, e.g. plain FIFO or keep-first, would
        # concentrate mass in some bins and empty others.
        bins = counts.reshape(10, 100).sum(axis=1)
        expected = trials * slots / 10
        sigma = math.sqrt(trials * 100 * (slots / n_stream)
                          * (1 - slots / n_stream))
        assert np.all(np.abs(bins - expected) <= 4 * sigma)
        # And no single position should be wildly over-represented.
        p = slots / n_stream
        sigma_one = math.sqrt(trials * p * (1 - p))
        assert np.max(np.abs(counts - trials * p)) <= 6 * sigma_one


    def test_descriptor_length_fixed_by_first(self):
        ss = SampleSet(8)
        with pytest.raises(ReidError):   # a refused batch fixes nothing
            update_samples(ss, [make_sample([1, 0], 1),
                                make_sample([1, 0, 0], 1)])
        fill(ss, [make_sample([1, 0, 0], 1)])
        with pytest.raises(ReidError):
            ss.add(make_sample([1, 0], 0))
        with pytest.raises(ReidError):
            update_samples(ss, [make_sample([0, 1, 0], 0),
                                make_sample([0, 1, 0, 0], 0)])
        assert len(ss) == 1
        assert_design_matrix_current(ss)

    @given(mode=st.sampled_from(["ST", "SLT"]), capacity=st.integers(1, 64),
           label_mix=st.sampled_from(["frames", "random"]),
           positive_share=st.floats(0.0, 1.0),
           similarity=st.floats(0.0, 0.99), dim=st.integers(5, 48),
           lam=st.sampled_from([1e-3, 1e-2, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_gram_matrix_and_fit_follow_every_insert(
            self, mode, capacity, label_mix, positive_share, similarity, dim,
            lam, seed):
        # "frames" inserts what the pipeline harvests per frame, a target
        # sample and 0-3 negatives; "random" inserts one sample at a time
        # with labels drawn at positive_share, so one class may be missing.
        # Three capacities' worth of samples force FIFO evictions and, in
        # SLT, reservoir replacements.
        ext = SyntheticExtractor(dim=dim, n_clusters=2, similarity=similarity,
                                 seed=seed)
        rng = np.random.default_rng(seed)
        ss = SampleSet(capacity, mode, rng=np.random.default_rng(seed))
        clf = RidgeClassifier(lam=lam)
        inserted = frame = 0
        while inserted < 3 * capacity + 2:
            if label_mix == "frames":
                labels = [1] + [0] * int(rng.integers(0, MAX_NEGATIVES + 1))
            else:
                labels = [int(rng.random() < positive_share)]
            batch = [AppearanceSample(ext.extract(1 - label, phase=0.1 * frame),
                                      label, frame, tid)
                     for tid, label in enumerate(labels)]
            update_samples(ss, batch)
            inserted += len(batch)
            frame += 1
            assert_design_matrix_current(ss)
            samples = ss.samples()
            labels = np.array([s.label for s in samples], dtype=float)
            if not train(clf, ss):
                assert labels.min() == labels.max()
                continue
            X = np.stack([s.descriptor for s in samples])
            w_ref, b_ref = stacked_lstsq_ridge(X, labels, lam)
            np.testing.assert_allclose(clf.w, w_ref, rtol=0, atol=1e-9)
            assert clf.b == pytest.approx(b_ref, rel=0, abs=1e-9)


class TestTrain:
    def test_separable_pair(self):
        ss = fill(SampleSet(4), [make_sample([1, 0], 1),
                                 make_sample([0, 1], 0)])
        clf = RidgeClassifier(lam=1e-9)
        assert train(clf, ss)
        assert score(clf, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-3)
        assert score(clf, np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-3)

    def test_large_lambda_shrinks_to_prior(self):
        rng = np.random.default_rng(0)
        samples = [make_sample(rng.normal(size=6), i % 2, frame=i)
                   for i in range(20)]
        ss = fill(SampleSet(32), samples)
        clf = RidgeClassifier(lam=1e9)
        train(clf, ss)
        assert np.linalg.norm(clf.w) < 1e-6
        assert clf.b == pytest.approx(0.5, abs=1e-6)

    def test_missing_class_skips_training(self):
        ss = fill(SampleSet(4), [make_sample([1, 0], 1)])
        clf = RidgeClassifier()
        assert not train(clf, ss)
        assert not clf.trained

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(42)
        X = rng.normal(size=(40, 8))
        labels = (rng.random(40) > 0.5).astype(int)
        labels[0], labels[1] = 1, 0
        samples = [AppearanceSample(x, int(l), i, i)
                   for i, (x, l) in enumerate(zip(X, labels))]
        ss = fill(SampleSet(64), samples)
        clf = RidgeClassifier(lam=1e-2)
        train(clf, ss)
        w_ref, b_ref = ridge_gradient_descent(X, labels.astype(float), 1e-2)
        np.testing.assert_allclose(clf.w, w_ref, atol=1e-6)
        assert clf.b == pytest.approx(b_ref, abs=1e-6)

    @given(st.integers(2, 16), st.integers(4, 64),
           st.sampled_from([1e-3, 1e-2, 1.0]), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_normal_equations_property(self, d, n, lam, seed):
        # The solution must satisfy the stationarity conditions of the
        # regularized objective (zero gradient), for any lambda > 0.
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, n)
        labels[0], labels[1 % n] = 1, 0
        samples = [AppearanceSample(x, int(l), i, i)
                   for i, (x, l) in enumerate(zip(X, labels))]
        ss = fill(SampleSet(64), samples)
        clf = RidgeClassifier(lam=lam)
        assert train(clf, ss)
        resid = X @ clf.w + clf.b - labels
        grad_w = 2 * X.T @ resid + 2 * lam * clf.w
        grad_b = 2 * resid.sum()
        np.testing.assert_allclose(grad_w, 0.0, atol=1e-6)
        assert abs(grad_b) < 1e-6


    @pytest.mark.parametrize("n", [2, 17, 64])
    def test_pipeline_dimension_matches_stacked_lstsq(self, n):
        # The pipeline's shape: unit descriptors of d = 512, n <= capacity.
        rng = np.random.default_rng(n)
        labels = np.arange(n) % 2
        samples = [make_sample(rng.normal(size=512), int(l), i, i)
                   for i, l in enumerate(labels)]
        ss = fill(SampleSet(64), samples)
        clf = RidgeClassifier(lam=1e-2)
        assert train(clf, ss)
        X = np.stack([s.descriptor for s in samples])
        w_ref, b_ref = stacked_lstsq_ridge(X, labels.astype(float), 1e-2)
        np.testing.assert_allclose(clf.w, w_ref, rtol=0, atol=1e-8)
        assert clf.b == pytest.approx(b_ref, rel=0, abs=1e-8)

    def test_slt_duplicate_rows_match_stacked_lstsq(self):
        # Target samples sit in both the FIFO and the reservoir, so the
        # stacked descriptor matrix repeats rows.
        rng = np.random.default_rng(7)
        ss = SampleSet(16, "SLT", rng=np.random.default_rng(0))
        for i in range(6):
            fill(ss, [make_sample(rng.normal(size=512), 1, i, 0),
                      make_sample(rng.normal(size=512), 0, i, 1)])
        samples = ss.samples()
        X = np.stack([s.descriptor for s in samples])
        assert len(np.unique(X, axis=0)) < len(X)
        clf = RidgeClassifier(lam=1e-2)
        assert train(clf, ss)
        labels = np.array([s.label for s in samples], dtype=float)
        w_ref, b_ref = stacked_lstsq_ridge(X, labels, 1e-2)
        np.testing.assert_allclose(clf.w, w_ref, rtol=0, atol=1e-8)
        assert clf.b == pytest.approx(b_ref, rel=0, abs=1e-8)

    def test_fit_assigns_new_weights_and_refusal_keeps_them(self):
        ss = fill(SampleSet(8), [make_sample([1, 0, 0], 1),
                                 make_sample([0, 1, 0], 0)])
        clf = RidgeClassifier()
        assert train(clf, ss)
        w_first = clf.w
        fill(ss, [make_sample([0, 0, 1], 0)])
        assert train(clf, ss)
        assert clf.w is not w_first
        w, b = clf.w, clf.b
        assert not train(clf, fill(SampleSet(8), [make_sample([1, 1, 0], 1)]))
        assert clf.w is w and clf.b == b and clf.trained


SCENARIOS = sim.builtin_scenarios()


@pytest.mark.parametrize("mode", ["ST", "SLT"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_pipeline_decisions_match_reference_fit(monkeypatch, name, mode):
    # The pipeline with train() and with the centred dual over stacked
    # samples reports the same frames; only scores may differ, by rounding.
    scenario = SCENARIOS[name]
    frames = sim.generate(scenario, 0)

    def run():
        pipe = FollowPipeline(scenario.intrinsics,
                              reid_cfg=ReidConfig(mode=mode),
                              target_person_id=scenario.target_id, seed=0)
        return [pipe.process_frame(record) for record in frames]

    fitted = run()
    monkeypatch.setattr(reid, "train", reference_train)
    reference = run()
    assert len(fitted) == len(reference)
    for got, want in zip(fitted, reference):
        assert (got.mode, got.target_track_id, got.target_box,
                got.target_position, got.tracks) == (
            want.mode, want.target_track_id, want.target_box,
            want.target_position, want.tracks)
        assert got.scores.keys() == want.scores.keys()
        for tid, value in got.scores.items():
            assert abs(value - want.scores[tid]) <= 1e-12


class TestScore:
    def _trained(self):
        ext = SyntheticExtractor(dim=32, n_clusters=2, similarity=0.2, seed=1)
        pos = [make_sample(ext.extract(0, phase=0.1 * i), 1, i)
               for i in range(20)]
        neg = [make_sample(ext.extract(1, phase=0.1 * i), 0, i)
               for i in range(20)]
        ss = fill(SampleSet(64), pos + neg)
        clf = RidgeClassifier(lam=1e-2)
        train(clf, ss)
        return clf, pos, neg

    def test_training_positive_scores_high(self):
        clf, pos, neg = self._trained()
        assert score(clf, pos[5].descriptor) > 0.9
        assert score(clf, neg[5].descriptor) < 0.1

    def test_clamping(self):
        clf = RidgeClassifier(w=np.array([1.7]), b=0.0)
        assert score(clf, np.array([1.0])) == 1.0
        assert score(clf, np.array([-1.0])) == 0.0

    def test_untrained_raises(self):
        with pytest.raises(UntrainedClassifierError):
            score(RidgeClassifier(), np.array([1.0]))


CFG = ReidConfig()   # delta_switch=0.35, delta_id=0.60, n_id=5


def following(tid):
    return FollowerState(FollowerMode.FOLLOWING, tid, {})


class TestStateMachine:
    def test_low_score_switches_to_reid(self):
        state, target = step_state_machine(following(3), {3: 0.30}, [3], CFG)
        assert state.mode is FollowerMode.RE_ID
        assert target is None

    def test_score_at_threshold_keeps_following(self):
        state, target = step_state_machine(following(3), {3: 0.35}, [3], CFG)
        assert state.mode is FollowerMode.FOLLOWING
        assert target == 3

    def test_target_lost_switches_to_reid(self):
        state, target = step_state_machine(following(3), {4: 0.9}, [4], CFG)
        assert state.mode is FollowerMode.RE_ID
        assert target is None

    def test_reacquire_after_exactly_n_id_frames(self):
        state = FollowerState()
        for k in range(4):
            state, target = step_state_machine(state, {7: 0.7}, [7], CFG)
            assert target is None and state.mode is FollowerMode.RE_ID
        state, target = step_state_machine(state, {7: 0.7}, [7], CFG)
        assert target == 7 and state.mode is FollowerMode.FOLLOWING

    def test_counter_reset_on_dip(self):
        scores = [0.7, 0.7, 0.5, 0.7, 0.7, 0.7, 0.7, 0.7]
        state = FollowerState()
        acquired_at = None
        for k, s in enumerate(scores, start=1):
            state, target = step_state_machine(state, {7: s}, [7], CFG)
            if target is not None and acquired_at is None:
                acquired_at = k
        assert acquired_at == 8

    def test_counter_reset_on_absence(self):
        state = FollowerState()
        for _ in range(4):
            state, _ = step_state_machine(state, {7: 0.7}, [7], CFG)
        state, _ = step_state_machine(state, {}, [], CFG)   # track vanishes
        for _ in range(4):
            state, target = step_state_machine(state, {7: 0.7}, [7], CFG)
            assert target is None
        state, target = step_state_machine(state, {7: 0.7}, [7], CFG)
        assert target == 7

    def test_tie_break_higher_score_then_lower_id(self):
        state = FollowerState()
        for _ in range(5):
            state, target = step_state_machine(
                state, {2: 0.8, 5: 0.9}, [2, 5], CFG)
        assert target == 5   # higher score wins

        state = FollowerState()
        for _ in range(5):
            state, target = step_state_machine(
                state, {2: 0.8, 5: 0.8}, [2, 5], CFG)
        assert target == 2   # equal scores: lower id wins

    def test_hits_capped_at_n_id(self):
        state = FollowerState()
        for _ in range(3):
            state, _ = step_state_machine(state, {7: 0.7, 9: 0.1}, [7, 9], CFG)
        assert all(h <= CFG.n_id for h in state.consecutive_hits.values())

    def test_no_report_during_reid(self):
        state = FollowerState()
        for _ in range(4):
            state, target = step_state_machine(state, {7: 0.7}, [7], CFG)
            assert target is None


class TestLabeling:
    def test_positive_and_capped_negatives(self):
        descs = {i: normalize_descriptor(np.eye(6)[i]) for i in range(6)}
        samples = label_frame_samples(2, descs, 10, [0, 1, 3, 4, 5])
        assert [s.label for s in samples] == [1] + [0] * MAX_NEGATIVES
        assert samples[0].track_id == 2

    def test_negative_order_respected(self):
        # The order may name the target and tracks without a descriptor.
        descs = {i: normalize_descriptor(np.eye(4)[i]) for i in range(4)}
        samples = label_frame_samples(0, descs, 0, [3, 0, 9, 1, 2])
        assert [s.track_id for s in samples[1:]] == [3, 1, 2]

    def test_target_missing_returns_empty(self):
        assert label_frame_samples(9, {1: np.array([1.0])}, 0, [1]) == []


class TestPreFit:
    """The follower before the classifier's first fit. Each frame shows
    standing people, each (person_id, has a descriptor); a track is
    confirmed, and so matched, from its second frame on."""

    BOXES = {0: BoundingBox(600, 200, 680, 500),
             1: BoundingBox(300, 200, 380, 500)}

    def run(self, frames):
        pipe = FollowPipeline(sim.DEFAULT_INTRINSICS, target_person_id=0)
        results = [pipe.process_frame(sim.FrameRecord(
            k, 0.1 * k, [sim.Detection(self.BOXES[pid],
                                       np.eye(4)[pid] if desc else None, pid)
                         for pid, desc in people], (0.0, 0.0, 0.0), {}))
            for k, people in enumerate(frames)]
        assert not pipe.classifier.trained
        return pipe, [(r.mode, r.target_track_id) for r in results]

    @pytest.mark.parametrize("first", [0, 1, 3])
    def test_designation_at_first_confirmed_frame_with_descriptor(
            self, first):
        pipe, got = self.run([[(0, k >= first)] for k in range(6)])
        tid = pipe.tracker.confirmed_tracks()[0].id
        designated = max(first, 1)
        assert got == [("RE_ID", None)] * designated + [
            ("FOLLOWING", tid)] * (6 - designated)
        assert len(pipe.sample_set) == 6 - designated

    def test_matched_person_without_descriptor_not_designated(self):
        # The other person has descriptors, the target none.
        pipe, got = self.run([[(0, False), (1, True)]] * 5)
        assert got == [("RE_ID", None)] * 5
        assert len(pipe.sample_set) == 0

    def test_target_kept_while_matched_without_descriptor(self):
        pipe, got = self.run([[(0, k != 3), (1, False)] for k in range(6)])
        tid = got[1][1]
        assert tid is not None
        assert got[1:] == [("FOLLOWING", tid)] * 5
        assert [s.frame_index for s in pipe.sample_set.samples()] == [
            1, 2, 4, 5]

    def test_designated_track_is_the_target_whenever_matched(self):
        # Frame 3 has nobody; the same person (and track) is matched again
        # from frame 4 on and is the target again.
        frames = [[(0, True)]] * 3 + [[]] + [[(0, True)]] * 4
        pipe, got = self.run(frames)
        tid = got[1][1]
        assert got == [("RE_ID", None)] + [("FOLLOWING", tid)] * 2 + [
            ("RE_ID", None)] + [("FOLLOWING", tid)] * 4
        assert [t.id for t in pipe.tracker.confirmed_tracks()] == [tid]
        assert len(pipe.sample_set) == 6

    def test_one_person_run_follows_its_designated_track(self):
        # One person gives no negatives, so the classifier never fits; the
        # target is the designated track on every frame where it is matched.
        sc = SCENARIOS["range_sweep"]
        pipe = FollowPipeline(sc.intrinsics, target_person_id=sc.target_id,
                              seed=0)
        results = [pipe.process_frame(f) for f in sim.generate(sc, 0)]
        tid = results[1].target_track_id
        assert tid is not None
        matched = [any(t == tid and box is not None
                       for t, _, _, box in r.tracks) for r in results]
        assert [r.target_track_id for r in results] == [
            tid if m else None for m in matched]
        assert [r.mode for r in results] == [
            "FOLLOWING" if m else "RE_ID" for m in matched]
        assert sum(matched) == 532
        assert not pipe.classifier.trained
        assert len(pipe.sample_set) == 64
