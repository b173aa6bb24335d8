import copy
import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import mpfollow
from mpfollow import geometry, seqio, sim, tracker
from mpfollow.geometry import (
    BoundingBox,
    GeometryError,
    build_observation_model,
    iou,
    process_measurement,
    project_person,
    robot_pose_extrinsics,
)
from mpfollow.pipeline import FollowPipeline
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


class TestTrackerConfig:
    @pytest.mark.parametrize("field", ["measurement_noise_std",
                                       "gate_distance", "r_body"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_lengths_positive_and_finite(self, field, value):
        # A NaN gate matches nothing, so every detection would start a
        # track; an infinite noise std makes the covariances NaN.
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite$"):
            TrackerConfig(**{field: value})

    @pytest.mark.parametrize("field", ["measurement_noise_std",
                                       "gate_distance", "r_body"])
    @pytest.mark.parametrize("value", [math.nextafter(1e50, math.inf), 1e300])
    def test_lengths_at_most_the_file_limit(self, field, value):
        # Beyond the bound a sequence file's numbers keep, the frame loop's
        # squares overflow: an r_body of 1e300 made associate refuse a
        # non-finite cost, and a noise std of 1e300 overflowed the first update.
        with pytest.raises(ValueError,
                           match=f"^{field} must be at most 1e\\+50$"):
            TrackerConfig(**{field: value})

    def test_lengths_at_the_limit_run_a_scenario(self):
        cfg = TrackerConfig(measurement_noise_std=1e50, gate_distance=1e50,
                            r_body=1e50)
        pipe = FollowPipeline(sim.DEFAULT_INTRINSICS, cfg, reid_enabled=False)
        frames = sim.generate(sim.builtin_scenarios()["corridor2_like"], 0)
        rows = [row for record in frames
                for row in pipe.process_frame(record).tracks]
        assert rows
        assert all(math.isfinite(x) and math.isfinite(y) for _, x, y, _ in rows)


class TestTrackState:
    def test_equality_is_identity_and_states_hash(self):
        a, b = TrackState(1, [1, 2, 0, 0]), TrackState(1, [1, 2, 0, 0])
        assert a == a and a != b
        assert len({a, b}) == 2 and {a: "a", b: "b"}[a] == "a"
        c = replace(a, missed=3)
        assert c != a and (c.id, c.missed) == (1, 3)
        assert (c.mean, c.cov) == (a.mean, a.cov)


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

    def test_velocity_terms_refused(self):
        # associate and update read M from H through geometry.position_block.
        t, H = make_track(1, [1, 2, 0, 0]), self.H.copy()
        H[1, 3] = 1e-300
        with pytest.raises(ValueError, match="zero velocity columns"):
            update(t, np.array([1.0, 2.0]), H, 0.1)
        with pytest.raises(ValueError, match="zero velocity columns"):
            associate([t], [(1.0, 2.0)], H, 1.0)

    def test_nonfinite_innovation_refused(self):
        # As associate refuses a non-finite cost and predict a dt <= 0.
        t = make_track(1, [1, 2, 0, 0])
        for y in ([np.nan, 2.0], [1.0, np.inf]):
            with pytest.raises(ValueError, match="innovation is not finite"):
                update(t, np.array(y), self.H, 0.1)
        assert t.s.tolist() == [1, 2, 0, 0]

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
            except GeometryError:
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
            if t.confirmed():
                associations[t.id] = boxes[j]
        for i in unmatched_t:
            self.tracks[i].missed += 1
        for j in unmatched_m:
            self.tracks.append(self._new_track(
                measurements[j], geometry.position_block(self.H)))
        # A tentative track ends at its first miss.
        self.tracks = [t for t in self.tracks if t.missed == 0 or (
            t.confirmed() and t.missed <= tracker.MAX_MISSED)]
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


def assert_states_close(got, want):
    """Means and covariances within 1e-12 (1 + |x|) of the reference's:
    the two round differently, so only the bookkeeping matches exactly."""
    for a, b in ((got.s, want.s), (got.P, want.P)):
        assert np.all(np.abs(a - b) <= 1e-12 * (1 + np.abs(b)))


class TestBatchedEquivalence:
    """Tracker.step runs one float Kalman filter per track; it must make the
    decisions of the numpy per-track loop, with states equal to rounding."""

    def test_step_matches_per_track_loop(self, wide_intr):
        cfg = TrackerConfig()
        extr = robot_pose_extrinsics(0, 0, 0)
        batched = Tracker(wide_intr, extr, cfg)
        reference = ReferenceTracker(wide_intr, extr, cfg)
        seen, born, coasted_out, dropped, matched = set(), set(), set(), 0, 0
        last_missed = {}
        for f in sim.generate(busy_scene(), 0):
            batched.set_pose(*f.robot_pose)
            reference.set_pose(*f.robot_pose)
            dets = DetectionSet([d.box for d in f.detections], f.timestamp)
            tracks, assoc = batched.step(dets)
            ref_tracks, ref_assoc = reference.step(dets)

            assert [t.id for t in tracks] == [t.id for t in ref_tracks]
            for t, r in zip(tracks, ref_tracks):
                assert_states_close(t, r)
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

    def test_assignment_matches_scipy_on_both_branches(self):
        # Square, wide and tall matrices up to 12x12, half of them small
        # integers so that costs tie. Matrices whose rows (the columns of a
        # tall one) have first minima in columns of their own are settled
        # without a search; the others need one. Both must be common, and
        # both must give scipy's assignment.
        settled = 0
        rng = np.random.default_rng(21)
        trials = 3000
        for k in range(trials):
            shape = rng.integers(1, 13, size=2)
            cost = (rng.integers(0, 4, size=shape).astype(float) if k % 2
                    else rng.normal(size=shape))
            rows, cols = tracker._min_cost_assignment(cost)
            want_rows, want_cols = linear_sum_assignment(cost)
            assert (rows, cols) == (want_rows.tolist(), want_cols.tolist())
            firsts = (cost.T if shape[1] < shape[0] else cost).argmin(axis=1)
            settled += len(set(firsts)) == len(firsts)
        assert 500 <= settled <= trials - 500

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
                assert_states_close(got, want)
                assert (got.id, got.hits, got.missed) == \
                    (want.id, want.hits, want.missed)


class TestSharedGain:
    """Tracks that share a covariance object share its prediction and gain;
    each must still hold the bits of a track predicted and updated alone."""

    @given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
           dts=st.lists(st.floats(0.02, 0.3), min_size=9, max_size=9),
           misses=st.dictionaries(st.integers(2, 8), st.integers(0, 4),
                                  min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_step_matches_one_track_calls(self, n, seed, dts, misses):
        # n people born in frame 0, 1.5 m apart so each box can only match
        # its own track (id k + 1 for person k). misses maps a frame to the
        # one person missed in it: that confirmed track coasts, so its cov
        # leaves the others', and it re-joins at the next frame.
        intr, cfg = sim.DEFAULT_INTRINSICS, TrackerConfig()
        extr = robot_pose_extrinsics(0.0, 0.0, 0.0)
        H = build_observation_model(extr)
        rng = np.random.default_rng(seed)
        tr = Tracker(intr, extr, cfg)
        misses = {(frame, k % n) for frame, k in misses.items()}
        timestamps = np.cumsum([0.0] + dts).tolist()
        shared = split = 0
        for frame, timestamp in enumerate(timestamps):
            dt = timestamp - timestamps[frame - 1]  # as step computes it
            seen = [k for k in range(n) if (frame, k) not in misses]
            boxes = [project_person(
                [3.0 + k % 2 + rng.uniform(-0.05, 0.05),
                 1.5 * k - 3.0 + rng.uniform(-0.05, 0.05), 0.0],
                2 * cfg.r_body, 1.7, intr, extr) for k in seen]
            before = {t.id: copy.copy(t) for t in tr.tracks}
            tracks, assoc = tr.step(DetectionSet(boxes, timestamp))
            assert [t.id for t in tracks] == list(range(1, n + 1))
            assert assoc == {t.id: seen.index(t.id - 1) for t in tracks
                             if t.id - 1 in seen and t.confirmed()}
            for t in tracks if frame else ():
                want = predict(before[t.id], dt)
                if t.id - 1 in seen:
                    y = process_measurement(boxes[seen.index(t.id - 1)],
                                            intr, extr, cfg.r_body)
                    want = update(want, y, H, cfg.measurement_noise_std)
                # repr tells -0.0 from 0.0: the bits must be equal.
                assert repr((t.mean, t.cov)) == repr((want.mean, want.cov))
                assert type(t.cov) is tuple
            groups = len({id(t.cov) for t in tracks})
            shared += groups < n
            split += groups > 1
        # Every frame before the first miss has one cov for all n tracks.
        assert shared >= 2 and split >= 1

    def test_cov_is_a_tuple(self):
        P0 = np.diag([tracker.INIT_POSITION_STD**2] * 2
                     + [tracker.INIT_VELOCITY_STD**2] * 2)
        born = TrackState(1, [1.0, 2.0, 0.0, 0.0])
        assert born.cov == TrackState(1, born.s, P0).cov
        t = make_track(2, [1.0, 2.0, 0.5, 0.0])
        for state in (born, t, predict(t, 0.1),
                      update(t, [0.0, 1.0], TestAssociate.H, 0.1)):
            assert type(state.cov) is tuple


def pitched_mount(phi):
    """The forward camera mount pitched down by phi radians."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[0.0, -1.0, 0.0], [-s, 0.0, -c], [c, 0.0, -s]])


finite = st.floats(-10, 10)


@st.composite
def kalman_cases(draw):
    """A track with a random SPD covariance, dt in (0, 1], sigma, y and
    H = [M 0] with M a rotation, a reflection, a tilted mount's block or
    any well-conditioned matrix.

    P = A A^T + c I with c a tenth of trace(A A^T) plus 0.01 has condition
    at most 11. Two correct ways of computing the update differ by about
    eps times the condition of S = H P H^T + R: with c = 0.01 and
    sigma = 0.01 the kernels and numpy's algebra differed by 1.8e-12, and
    against exact rationals both erred by up to 1e-11.
    """
    A = np.array(draw(st.lists(st.floats(-2, 2), min_size=16, max_size=16)))
    AAt = A.reshape(4, 4) @ A.reshape(4, 4).T
    P = AAt + (0.01 + 0.1 * np.trace(AAt)) * np.eye(4)
    theta = draw(st.floats(-math.pi, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    kind = draw(st.sampled_from(["rotation", "reflection", "tilted", "any"]))
    if kind == "rotation":
        M = [[c, -s], [s, c]]
    elif kind == "reflection":
        M = [[c, s], [s, -c]]
    elif kind == "tilted":
        extr = robot_pose_extrinsics(
            draw(finite), draw(finite), theta,
            R_robot_cam=pitched_mount(draw(st.floats(-1.2, 1.2))))
        M = build_observation_model(extr)[:, :2]
    else:
        M = np.array(draw(st.lists(st.floats(-2, 2), min_size=4, max_size=4)))
        M = M.reshape(2, 2)
        assume(np.linalg.cond(M) < 10)
    H = np.zeros((2, 4))
    H[:, :2] = M
    track = make_track(1, draw(st.lists(finite, min_size=4, max_size=4)), P)
    return (track, draw(st.floats(0, 1, exclude_min=True)), H,
            np.array(draw(st.lists(finite, min_size=2, max_size=2))),
            draw(st.floats(0.01, 1.0)))


class TestScalarKernels:
    @given(kalman_cases())
    @settings(max_examples=300, deadline=None)
    def test_match_reference_algebra(self, case):
        # The float kernels against numpy's algebra: to 1e-12 relative,
        # with an exactly symmetric, positive semi-definite covariance.
        track, dt, H, y, sigma = case
        for got, want in ((predict(track, dt), reference_predict(track, dt)),
                          (update(track, y, H, sigma),
                           reference_update(track, y, H, sigma))):
            assert_states_close(got, want)
            P = got.P
            assert np.array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.trace(P)

    @pytest.mark.parametrize("mount", [np.eye(3), pitched_mount(math.pi / 2)],
                             ids=["identity", "straight-down"])
    def test_singular_position_block_refused(self, wide_intr, mount):
        # Both mounts see the ground plane edge-on: H has rank 1 (the
        # second only up to the rounding of cos(pi/2)), so no world
        # position can seed a track. The mount is refused where it is
        # installed, before any frame runs.
        extr = robot_pose_extrinsics(0, 0, 0, R_robot_cam=mount)
        assert np.linalg.matrix_rank(build_observation_model(extr), tol=1e-9) == 1
        with pytest.raises(GeometryError, match="R_robot_cam"):
            Tracker(wide_intr, extr)
        with pytest.raises(GeometryError, match="R_robot_cam"):
            FollowPipeline(wide_intr, mount=extr)

    def test_mount_checked_once_per_run(self, monkeypatch):
        # The mount is checked where it enters; a frame only poses the robot.
        calls = []

        def counted(R, name):
            calls.append(name)
            return geometry.check_mount(R, name)
        monkeypatch.setattr(tracker, "check_mount", counted)
        sc = sim.builtin_scenarios()["corridor1_like"]
        frames = sim.generate(sc, 0)
        pipe = FollowPipeline(sc.intrinsics, reid_enabled=False)
        for f in frames:
            pipe.process_frame(f)
        assert len(frames) == 600
        assert calls == ["R_robot_cam"]

    def test_pipeline_passes_mount_as_given(self, wide_intr):
        # A mount is an Extrinsics of the robot at the origin, as
        # load_calibration returns it: the pipeline builds no second one.
        m = robot_pose_extrinsics(0, 0, 0, R_robot_cam=pitched_mount(0.3),
                                  t_robot_cam=[0.1, 0.0, 1.2])
        assert FollowPipeline(wide_intr, mount=m).tracker.extr is m

    def test_set_pose_at_any_heading(self, wide_intr):
        # Guard: a heading only rotates M's columns, so a pitched mount that
        # passed its one check stays of rank 2 at every pose.
        rng = np.random.default_rng(0)
        tr = Tracker(wide_intr, robot_pose_extrinsics(
            0, 0, 0, R_robot_cam=pitched_mount(0.3)))
        for x, y, theta in rng.uniform(-50, 50, size=(1000, 3)):
            tr.set_pose(x, y, theta)
            a, b, c, d = geometry.position_block(tr.H)
            assert abs(a * d - b * c) > 1e-9

    @given(rpy=st.lists(st.floats(-7, 7) | st.sampled_from(
               [0.0, math.pi / 2, -math.pi / 2, math.pi]), min_size=3, max_size=3),
           t=st.lists(finite, min_size=3, max_size=3),
           poses=st.lists(st.tuples(*[st.floats(-1e50, 1e50)] * 3),
                          min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_loaded_mount_steps_at_any_pose(self, tmp_path_factory, rpy, t,
                                            poses):
        # Any rpy mount that load_calibration accepts tracks at any robot
        # pose the sequence loader accepts: no GeometryError mid-run.
        calib = tmp_path_factory.getbasetemp() / "mount.yaml"
        calib.write_text(yaml.safe_dump({
            "intrinsics": {"f_x": 500.0, "f_y": 500.0, "c_x": 640.0,
                           "c_y": 360.0, "image_width": 1280,
                           "image_height": 720},
            "extrinsics": {"r_robot_cam": {"rpy": rpy}, "t_robot_cam": t}}))
        try:
            intr, mount = seqio.load_calibration(str(calib))
        except seqio.SchemaError:
            assume(False)
        pipe = FollowPipeline(intr, mount=mount, reid_enabled=False)
        boxes = [BoundingBox(300, 100, 380, 500), BoundingBox(600, 100, 700, 600)]
        for k, pose in enumerate(poses * 2):
            pipe.process_frame(sim.FrameRecord(
                k, 0.1 * k, [sim.Detection(b, None, None) for b in boxes],
                pose, {}))

    def test_reid_off_outputs_independent_of_blas_kernel(self, tmp_path):
        # A turning robot read from a sequence file, tracked with re-ID off
        # in two processes: one with OpenBLAS's default kernel for this
        # CPU, one with its Sandybridge kernel, which never fuses a
        # multiply and an add. Every FrameResult must print the same.
        seq = tmp_path / "busy.jsonl"
        seqio.write_sequence(sim.generate(busy_scene(), 0), seq)
        script = (
            "import sys\n"
            "from mpfollow import seqio, sim\n"
            "from mpfollow.pipeline import FollowPipeline\n"
            "pipe = FollowPipeline(sim.DEFAULT_INTRINSICS, reid_enabled=False)\n"
            "for frame in seqio.read_sequence(sys.argv[1]):\n"
            "    print(repr(pipe.process_frame(frame)))\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(mpfollow.__file__))
        outputs = []
        for extra in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"}):
            run = subprocess.run([sys.executable, "-c", script, str(seq)],
                                 env={**env, **extra}, capture_output=True,
                                 text=True, check=True)
            outputs.append(run.stdout.splitlines())
        assert len(outputs[0]) == len(seqio.read_sequence(seq))
        assert sum("tracks=[(" in line for line in outputs[0]) > 100
        assert outputs[0] == outputs[1]
