import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from mpfollow import sim, tracker
from mpfollow.geometry import (
    BoundingBox,
    InvalidDetectionError,
    iou,
    process_measurement,
    robot_pose_extrinsics,
)
from mpfollow.tracker import (
    DetectionSet,
    Tracker,
    TrackerConfig,
    TrackState,
    associate,
    filter_overlaps,
    predict,
    update,
)


def brute_force_filter(boxes, delta_iou):
    """Direct evaluation of the overlap rule: keep a box iff its largest
    IoU with any other box is below the threshold."""
    kept = []
    for i, a in enumerate(boxes):
        worst = 0.0
        for j, b in enumerate(boxes):
            if i != j:
                worst = max(worst, iou(a, b))
        if worst < delta_iou:
            kept.append(a)
    return kept


def brute_force_assignment(tracks, measurements, H):
    """Exhaustive minimum-cost one-to-one assignment (no gating)."""
    n, m = len(tracks), len(measurements)
    k = min(n, m)
    best_pairs, best_cost = [], math.inf
    for track_subset in itertools.permutations(range(n), k):
        for meas_perm in itertools.permutations(range(m), k):
            cost = 0.0
            for ti, mj in zip(track_subset, meas_perm):
                d = H @ tracks[ti].s - measurements[mj]
                cost += d @ d
            if cost < best_cost:
                best_pairs = list(zip(track_subset, meas_perm))
                best_cost = cost
    if not best_pairs:
        best_cost = 0.0
    return best_pairs, best_cost


def make_track(tid, s, P=None):
    return TrackState(id=tid, s=np.asarray(s, dtype=float),
                      P=np.eye(4) if P is None else P)


box_strategy = st.builds(
    lambda u, v, w, h: BoundingBox(u, v, u + w, v + h),
    st.floats(0, 500), st.floats(0, 300),
    st.floats(1, 150), st.floats(1, 150))

# A crowd as a person detector sees it: many narrow, tall boxes side by
# side, some starting at the same u.
crowd_box_strategy = st.builds(
    lambda u, v, w, h: BoundingBox(u, v, u + w, v + h),
    st.one_of(st.sampled_from([100.0, 400.0, 640.0]), st.floats(0, 1280)),
    st.floats(100, 300), st.floats(5, 60), st.floats(100, 400))


class TestFilterOverlaps:
    def test_identical_boxes_removed(self):
        b = BoundingBox(0, 0, 10, 10)
        out = filter_overlaps(DetectionSet([b, b]), 0.5)
        assert out.boxes == []

    def test_disjoint_boxes_kept(self):
        a, b = BoundingBox(0, 0, 10, 10), BoundingBox(20, 20, 30, 30)
        out = filter_overlaps(DetectionSet([a, b]), 0.5)
        assert out.boxes == [a, b]

    def test_empty(self):
        assert filter_overlaps(DetectionSet([]), 0.5).boxes == []

    def test_order_preserved(self):
        boxes = [BoundingBox(i * 20, 0, i * 20 + 10, 10) for i in range(5)]
        out = filter_overlaps(DetectionSet(boxes), 0.5)
        assert out.boxes == boxes

    @given(st.one_of(st.lists(box_strategy, max_size=10),
                     st.lists(crowd_box_strategy, max_size=30)),
           st.floats(0.05, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, boxes, delta):
        out = filter_overlaps(DetectionSet(boxes), delta)
        assert out.boxes == brute_force_filter(boxes, delta)


class TestPredict:
    def test_constant_velocity(self):
        t = predict(make_track(1, [0, 0, 1, 0]), 0.5)
        np.testing.assert_allclose(t.s[:2], [0.5, 0.0])
        np.testing.assert_allclose(t.s[2:], [1.0, 0.0])

    def test_zero_velocity_covariance_grows(self):
        t0 = make_track(1, [1, 2, 0, 0])
        t1 = predict(t0, 0.1)
        np.testing.assert_allclose(t1.s[:2], [1, 2])
        assert np.trace(t1.P) > np.trace(t0.P)

    def test_repeated_equals_single_for_mean(self):
        t = make_track(1, [0.3, -0.2, 0.8, 0.4])
        stepped = t
        for _ in range(7):
            stepped = predict(stepped, 0.1)
        once = predict(t, 0.7)
        np.testing.assert_allclose(stepped.s, once.s, atol=1e-12)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            predict(make_track(1, [0, 0, 0, 0]), 0.0)

    def test_covariance_symmetric(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        t = make_track(1, [0, 0, 0, 0], P=A @ A.T)
        t = predict(t, 0.1)
        np.testing.assert_allclose(t.P, t.P.T, atol=1e-9)


class TestAssociate:
    H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])

    def test_exact_match(self):
        tracks = [make_track(1, [1, 2, 0, 0])]
        pairs, ut, um = associate(tracks, [np.array([1.0, 2.0])], self.H, 1.0)
        assert pairs == [(0, 0)] and ut == [] and um == []

    def test_beats_greedy(self):
        # Greedy would give track0 -> m0 (cost 0.8^2) leaving track1 -> m1
        # at a large cost; the global optimum swaps them.
        tracks = [make_track(1, [0, 0, 0, 0]), make_track(2, [1.0, 0, 0, 0])]
        ms = [np.array([0.8, 0.0]), np.array([1.6, 0.0])]
        pairs, _, _ = associate(tracks, ms, self.H, 10.0)
        assert sorted(pairs) == [(0, 0), (1, 1)]
        total = sum(np.sum((self.H @ tracks[i].s - ms[j]) ** 2)
                    for i, j in pairs)
        _, best = brute_force_assignment(tracks, ms, self.H)
        assert total == pytest.approx(best)

    def test_gating(self):
        tracks = [make_track(1, [0, 0, 0, 0])]
        pairs, ut, um = associate(tracks, [np.array([5.0, 5.0])], self.H, 1.0)
        assert pairs == [] and ut == [0] and um == [0]

    def test_empty_inputs(self):
        assert associate([], [], self.H, 1.0) == ([], [], [])

    def test_nonfinite_cost_rejected(self):
        tracks = [make_track(1, [0, 0, 0, 0])]
        with pytest.raises(ValueError):
            associate(tracks, [np.array([np.nan, 0.0])], self.H, 1.0)

    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = rng.integers(0, 5)
            m = rng.integers(0, 5)
            tracks = [make_track(i, rng.normal(scale=2, size=4))
                      for i in range(n)]
            ms = [rng.normal(scale=2, size=2) for _ in range(m)]
            pairs, _, _ = associate(tracks, ms, self.H, 1e9)
            total = sum(np.sum((self.H @ tracks[i].s - ms[j]) ** 2)
                        for i, j in pairs)
            best_pairs, best_cost = brute_force_assignment(tracks, ms, self.H)
            assert len(pairs) == len(best_pairs)
            assert total == pytest.approx(best_cost, abs=1e-9)


class TestUpdate:
    H = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])

    def test_consistent_measurement_shrinks_covariance(self):
        t = make_track(1, [1, 2, 0, 0])
        t2 = update(t, np.array([1.0, 2.0]), self.H, 0.1)
        np.testing.assert_allclose(t2.s, t.s, atol=1e-12)
        assert np.trace(t2.P[:2, :2]) < np.trace(t.P[:2, :2])

    def test_nonfinite_innovation_flags_invalid(self):
        t = make_track(1, [1, 2, 0, 0])
        t2 = update(t, np.array([np.nan, 2.0]), self.H, 0.1)
        assert not t2.valid

    def test_static_person_noise_free_converges(self, wide_intr):
        # Full tracker against simulator ground truth: static pedestrian,
        # no noise; the estimate settles on the true position.
        ped = sim.Pedestrian(id=0, waypoints=[(0.0, 2.5, 0.0)])
        sc = sim.Scenario("static", [ped], sim.RobotPath([(0, 0, 0, 0)]),
                          duration=5.0, frame_rate=10.0, descriptor_dim=8)
        tr = Tracker(wide_intr, robot_pose_extrinsics(0, 0, 0), TrackerConfig())
        for f in sim.generate(sc, 0):
            tracks, _ = tr.step(DetectionSet(
                [d.box for d in f.detections], f.timestamp))
        assert len(tracks) == 1
        np.testing.assert_allclose(tracks[0].s[:2], [2.5, 0.0], atol=1e-6)

    def test_static_person_noisy_rmse(self):
        cfg = TrackerConfig()
        rng = np.random.default_rng(77)
        t = make_track(1, [0, 0, 0, 0], P=np.diag([0.25, 0.25, 1.0, 1.0]))
        truth = np.array([1.0, 2.0])
        errs = []
        for k in range(500):
            t = predict(t, 1 / 30)
            t = update(t, truth + rng.normal(0, 0.05, 2), self.H,
                       cfg.measurement_noise_std)
            if k >= 100:
                errs.append(np.sum((t.s[:2] - truth) ** 2))
        assert math.sqrt(np.mean(errs)) < 0.02

    def test_covariance_symmetry_preserved(self):
        rng = np.random.default_rng(5)
        t = make_track(1, [0, 0, 0, 0])
        for _ in range(20):
            t = predict(t, 0.05)
            t = update(t, rng.normal(size=2), self.H, 0.1)
            np.testing.assert_allclose(t.P, t.P.T, atol=1e-9)
            assert np.all(np.linalg.eigvalsh(t.P) > -1e-9)


def simulate(scenario, seed=0):
    return sim.generate(scenario, seed)


class TestStep:
    def make_tracker(self, intr):
        return Tracker(intr, robot_pose_extrinsics(0, 0, 0), TrackerConfig())

    def test_empty_detections_coast(self, wide_intr):
        tr = self.make_tracker(wide_intr)
        tr.step(DetectionSet([BoundingBox(600, 100, 680, 500)], 0.0))
        missed_before = tr.tracks[0].missed
        s_before = tr.tracks[0].s.copy()
        tr.step(DetectionSet([], 1 / 30))
        # tentative track missed before confirmation is dropped
        assert tr.tracks == []

        tr = self.make_tracker(wide_intr)
        for k in range(3):
            tr.step(DetectionSet([BoundingBox(600, 100, 680, 500)], k / 30))
        tr.step(DetectionSet([], 3 / 30))
        assert len(tr.tracks) == 1
        assert tr.tracks[0].missed == 1

    def test_straight_line_single_stable_track(self, wide_intr):
        ped = sim.Pedestrian(id=0, waypoints=[(0.0, 2.0, 0.0), (10.0, 4.0, 0.0)])
        sc = sim.Scenario("line", [ped], sim.RobotPath([(0, 0, 0, 0)]),
                          duration=10.0, frame_rate=10.0, descriptor_dim=8)
        tr = self.make_tracker(wide_intr)
        ids = set()
        errs = []
        for f in simulate(sc):
            tracks, _ = tr.step(DetectionSet(
                [d.box for d in f.detections], f.timestamp))
            for t in tracks:
                ids.add(t.id)
                gt = f.pedestrian_positions[0]
                if f.frame_index >= 10:
                    errs.append(math.hypot(t.s[0] - gt[0], t.s[1] - gt[1]))
        assert ids == {1}
        assert np.mean(errs) < 1e-3

    def test_crossing_coast_and_reassociate(self, wide_intr):
        # Two people swap lateral positions; at the crossing the IoU filter
        # removes both boxes, tracks coast, then re-associate correctly.
        peds = [
            sim.Pedestrian(id=0, waypoints=[(0.0, 3.0, 1.0), (8.0, 3.0, -1.0)]),
            sim.Pedestrian(id=1, waypoints=[(0.0, 3.0, -1.0), (8.0, 3.0, 1.0)]),
        ]
        sc = sim.Scenario("cross", peds, sim.RobotPath([(0, 0, 0, 0)]),
                          duration=8.0, frame_rate=10.0, descriptor_dim=8)
        frames = simulate(sc)
        # the crossing must actually trigger the overlap filter
        assert any(
            len(filter_overlaps(DetectionSet([d.box for d in f.detections]),
                                0.5).boxes) < len(f.detections)
            for f in frames[30:50])

        tr = self.make_tracker(wide_intr)
        id_by_person = {}
        for f in frames:
            tracks, assoc = tr.step(DetectionSet(
                [d.box for d in f.detections], f.timestamp))
            if f.frame_index == 20:   # before crossing
                for tid, k in assoc.items():
                    id_by_person[f.detections[k].person_id] = tid
        # after the crossing each person is tracked by their original track
        final = frames[-1]
        for d in final.detections:
            gt = final.pedestrian_positions[d.person_id]
            match = min(tr.tracks,
                        key=lambda t: math.hypot(t.s[0] - gt[0], t.s[1] - gt[1]))
            assert match.id == id_by_person[d.person_id]

    def test_track_ids_never_reused(self, wide_intr):
        tr = self.make_tracker(wide_intr)
        seen = []
        rng = np.random.default_rng(4)
        for k in range(60):
            boxes = []
            if k % 7 < 4:   # appear and disappear repeatedly
                u = 300 + 40 * rng.integers(0, 5)
                boxes.append(BoundingBox(u, 100, u + 60, 500))
            tracks, _ = tr.step(DetectionSet(boxes, k / 10))
            seen.extend(t.id for t in tracks)
        # ids are assigned in strictly increasing order, never recycled
        firsts = {}
        for idx, tid in enumerate(seen):
            firsts.setdefault(tid, idx)
        order = [tid for tid, _ in sorted(firsts.items(), key=lambda kv: kv[1])]
        assert order == sorted(order)

    @pytest.mark.parametrize("bad_timestamp", [0.2, 0.1],
                             ids=["repeated", "earlier"])
    def test_timestamp_not_after_previous_refused(self, wide_intr,
                                                  bad_timestamp):
        # The refused frame changes nothing: the frames after it track as
        # on a tracker that never saw it.
        frames = [DetectionSet([BoundingBox(600 + 4 * k, 100, 680 + 4 * k, 500)],
                               k / 10) for k in range(6)]
        bad = DetectionSet([BoundingBox(300, 100, 360, 500)], bad_timestamp)
        tr, clean = self.make_tracker(wide_intr), self.make_tracker(wide_intr)
        for k, dets in enumerate(frames):
            if k == 3:
                with pytest.raises(ValueError, match="not after"):
                    tr.step(bad)
            tracks, assoc = tr.step(dets)
            ref_tracks, ref_assoc = clean.step(dets)
            assert assoc == ref_assoc
            assert [(t.id, t.hits, t.missed) for t in tracks] == \
                [(t.id, t.hits, t.missed) for t in ref_tracks]
            for t, r in zip(tracks, ref_tracks):
                assert np.array_equal(t.s, r.s)
                assert np.array_equal(t.P, r.P)
        assert len(tracks) == 1 and tracks[0].hits == 6

    def test_bad_detection_dropped_frame_continues(self, wide_intr):
        tr = self.make_tracker(wide_intr)
        good = BoundingBox(600, 100, 680, 500)
        for k in range(3):
            tracks, _ = tr.step(DetectionSet([good], k / 30))
        assert len(tr.tracks) == 1


# Reference: the tracker as one Kalman filter per track, each predicted,
# associated and updated on its own with plain 2-D algebra.

def reference_predict(track, dt):
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    sp, sv = tracker.PROCESS_NOISE_STD
    P = F @ track.P @ F.T + np.diag([sp**2, sp**2, sv**2, sv**2]) * dt
    return replace(track, s=F @ track.s, P=0.5 * (P + P.T))


def reference_update(track, y, H, measurement_noise_std):
    R = np.eye(2) * measurement_noise_std**2
    innovation = y - H @ track.s
    if not np.all(np.isfinite(innovation)):
        return replace(track, valid=False)
    K = track.P @ H.T @ np.linalg.inv(H @ track.P @ H.T + R)
    I_KH = np.eye(4) - K @ H
    P = I_KH @ track.P @ I_KH.T + K @ R @ K.T
    return replace(track, s=track.s + K @ innovation, P=0.5 * (P + P.T))


def reference_associate(tracks, measurements, H, gate):
    if not tracks or not measurements:
        return [], list(range(len(tracks))), list(range(len(measurements)))
    cost = np.zeros((len(tracks), len(measurements)))
    for i, t in enumerate(tracks):
        expected = H @ t.s
        for j, y in enumerate(measurements):
            d = expected - y
            cost[i, j] = d @ d
    rows, cols = linear_sum_assignment(cost)
    pairs = [(i, j) for i, j in zip(rows, cols) if cost[i, j] <= gate * gate]
    unmatched_t = [i for i in range(len(tracks)) if i not in {p[0] for p in pairs}]
    unmatched_m = [j for j in range(len(measurements))
                   if j not in {p[1] for p in pairs}]
    return pairs, unmatched_t, unmatched_m


class ReferenceTracker(Tracker):
    """Tracker.step as a loop over tracks; associations map id -> box."""

    def step(self, dets):
        cfg = self.cfg
        dt = None
        if self._last_timestamp is not None:
            dt = dets.timestamp - self._last_timestamp
        self._last_timestamp = dets.timestamp
        measurements, boxes = [], []
        for box in brute_force_filter(dets.boxes, cfg.delta_iou):
            try:
                measurements.append(
                    process_measurement(box, self.intr, self.extr, cfg.r_body))
                boxes.append(box)
            except InvalidDetectionError:
                continue
        self.tracks = [reference_predict(t, dt) for t in self.tracks]
        pairs, unmatched_t, unmatched_m = reference_associate(
            self.tracks, measurements, self.H, cfg.gate_distance)
        associations = {}
        for i, j in pairs:
            t = reference_update(self.tracks[i], measurements[j], self.H,
                                 cfg.measurement_noise_std)
            t.missed, t.hits = 0, t.hits + 1
            self.tracks[i] = t
            if t.valid and t.confirmed():
                associations[t.id] = boxes[j]
        for i in unmatched_t:
            self.tracks[i].missed += 1
            if not self.tracks[i].confirmed():
                self.tracks[i].valid = False
        for j in unmatched_m:
            self.tracks.append(self._new_track(measurements[j]))
        self.tracks = [t for t in self.tracks
                       if t.valid and t.missed <= tracker.MAX_MISSED]
        return self.tracks, associations


def busy_scene():
    """Five people ahead of a turning robot: two cross, one is hidden long
    enough for its track to die and be reborn, one walks out of view."""
    peds = [
        sim.Pedestrian(id=0, waypoints=[(0.0, 3.5, 1.2), (12.0, 4.0, -1.2)]),
        sim.Pedestrian(id=1, waypoints=[(0.0, 3.5, -1.2), (12.0, 4.0, 1.2)]),
        sim.Pedestrian(id=2, waypoints=[(0.0, 5.0, 0.2), (12.0, 6.0, 0.0)]),
        sim.Pedestrian(id=3, waypoints=[(0.0, 2.5, -0.4), (12.0, 3.0, -0.3)]),
        sim.Pedestrian(id=4, waypoints=[(0.0, 4.5, 1.8), (6.0, 2.5, 6.0),
                                        (12.0, 2.5, 6.0)]),
    ]
    robot = sim.RobotPath([(0.0, 0.0, 0.0, 0.0), (12.0, 1.0, 0.2, 0.15)])
    return sim.Scenario("busy", peds, robot, duration=12.0, frame_rate=10.0,
                        box_pixel_std=0.5, descriptor_dim=8,
                        occlusions=[sim.OcclusionEvent(3, 2.0, 6.5)])


class TestBatchedEquivalence:
    """Tracker.step runs all tracks as one stacked Kalman bank; it must give
    exactly the same numbers as the per-track loop."""

    def test_step_matches_per_track_loop(self, wide_intr):
        cfg = TrackerConfig()
        extr = robot_pose_extrinsics(0, 0, 0)
        batched = Tracker(wide_intr, extr, cfg)
        reference = ReferenceTracker(wide_intr, extr, cfg)
        seen, born, coasted_out, dropped, matched = set(), set(), set(), 0, 0
        last_missed = {}
        for f in sim.generate(busy_scene(), 0):
            pose_extr = robot_pose_extrinsics(*f.robot_pose)
            batched.set_extrinsics(pose_extr)
            reference.set_extrinsics(pose_extr)
            dets = DetectionSet([d.box for d in f.detections], f.timestamp)
            tracks, assoc = batched.step(dets)
            ref_tracks, ref_assoc = reference.step(dets)

            assert [t.id for t in tracks] == [t.id for t in ref_tracks]
            for t, r in zip(tracks, ref_tracks):
                assert np.array_equal(t.s, r.s)
                assert np.array_equal(t.P, r.P)
                assert (t.hits, t.missed) == (r.hits, r.missed)
            assert {tid: dets.boxes[k] for tid, k in assoc.items()} == ref_assoc

            ids = {t.id for t in tracks}
            if f.frame_index > 0:
                born |= ids - seen
            seen |= ids
            coasted_out |= {tid for tid, missed in last_missed.items()
                            if tid not in ids and missed == tracker.MAX_MISSED}
            last_missed = {t.id: t.missed for t in tracks}
            dropped += len(dets.boxes) - len(
                filter_overlaps(dets, cfg.delta_iou).boxes)
            matched += len(assoc)
        # The scene exercises what the bank must get right: births after
        # the first frame, confirmed tracks that coast until they die, and
        # crossings that the overlap filter drops.
        assert len(born) >= 2 and len(coasted_out) >= 2
        assert dropped >= 4 and matched >= 300

    def test_associate_matches_scipy_loop(self):
        # Positions on a small integer grid make many costs tie exactly:
        # ties must be broken as scipy.optimize.linear_sum_assignment does.
        H = TestAssociate.H
        rng = np.random.default_rng(8)
        for k in range(2000):
            n, m = rng.integers(1, 9, size=2)
            if k % 2:
                tracks = [make_track(i, rng.integers(-2, 3, size=4))
                          for i in range(n)]
                ms = [rng.integers(-2, 3, size=2).astype(float)
                      for _ in range(m)]
            else:
                tracks = [make_track(i, rng.normal(scale=2, size=4))
                          for i in range(n)]
                ms = [rng.normal(scale=2, size=2) for _ in range(m)]
            gate = float(rng.choice([0.5, 2.0, 1e9]))
            assert associate(tracks, ms, H, gate) == \
                reference_associate(tracks, ms, H, gate)

    def test_assignment_matches_scipy_on_both_branches(self, monkeypatch):
        # Square, wide and tall matrices up to 12x12, half of them small
        # integers so that costs tie. The shortcut (each row's strict
        # minimum in a column of its own) and the augmenting search must
        # both run often, and both must give scipy's assignment.
        searched = []
        search = tracker._augmenting_paths
        monkeypatch.setattr(tracker, "_augmenting_paths",
                            lambda C: searched.append(1) or search(C))
        rng = np.random.default_rng(21)
        trials = 3000
        for k in range(trials):
            shape = rng.integers(1, 13, size=2)
            cost = (rng.integers(0, 4, size=shape).astype(float) if k % 2
                    else rng.normal(size=shape))
            rows, cols = tracker._min_cost_assignment(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert (rows, cols) == (want_rows.tolist(), want_cols.tolist())
        assert 500 < len(searched) < trials - 500

    def test_one_track_calls_match_plain_algebra(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            A = rng.normal(size=(4, 4))
            t = make_track(1, rng.normal(scale=3, size=4), P=A @ A.T)
            theta = rng.uniform(-math.pi, math.pi)
            H = np.zeros((2, 4))
            H[:, :2] = [[-math.sin(theta), math.cos(theta)],
                        [math.cos(theta), math.sin(theta)]]
            dt = rng.uniform(0.01, 0.5)
            y = rng.normal(scale=3, size=2)
            for got, want in ((predict(t, dt), reference_predict(t, dt)),
                              (update(t, y, H, 0.1), reference_update(t, y, H, 0.1))):
                assert np.array_equal(got.s, want.s)
                assert np.array_equal(got.P, want.P)
