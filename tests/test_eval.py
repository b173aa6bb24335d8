import dataclasses
import json
import math

import numpy as np
import pytest

from mpfollow.evaluation import (
    RANGE_BINS,
    EvaluationError,
    metrics_lines,
    range_error_stats,
    reid_precision,
    run_experiment,
)
from mpfollow.pipeline import FollowPipeline
from mpfollow.reid import ReidConfig
from mpfollow.sim import builtin_scenarios, generate


class TestReidPrecision:
    def test_seven_of_ten_within_threshold(self):
        # 7 estimates within 50 px of truth, 2 outside, 1 missing.
        frames = []
        for i in range(7):
            frames.append((i, (100.0 + i, 100.0), (100.0, 100.0)))
        frames.append((7, (200.0, 100.0), (100.0, 100.0)))
        frames.append((8, (100.0, 300.0), (100.0, 100.0)))
        frames.append((9, None, (100.0, 100.0)))
        assert reid_precision(frames) == pytest.approx(0.7)

    def test_frames_without_gt_excluded(self):
        frames = [(0, (0.0, 0.0), (0.0, 0.0)), (1, (500.0, 0.0), None)]
        assert reid_precision(frames) == pytest.approx(1.0)

    def test_boundary_inclusive(self):
        frames = [(0, (150.0, 100.0), (100.0, 100.0))]
        assert reid_precision(frames) == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        frames = [(i, tuple(rng.uniform(0, 300, 2)), (150.0, 150.0))
                  for i in range(50)]
        shuffled = list(frames)
        rng.shuffle(shuffled)
        assert reid_precision(frames) == reid_precision(shuffled)

    def test_no_gt_raises(self):
        with pytest.raises(EvaluationError):
            reid_precision([(0, (1.0, 1.0), None)])


class TestRangeErrorStats:
    def test_bin_edges(self):
        assert RANGE_BINS[0] == (0.5, 1.0)
        assert RANGE_BINS[-1] == (6.0, 7.0)
        assert len(RANGE_BINS) == 7

    def test_constant_bias_lands_in_every_bin(self):
        pairs = [(r + 0.1, r) for r in np.arange(0.55, 7.0, 0.05)]
        stats = range_error_stats(pairs)
        for b in stats.bins:
            assert b["count"] > 0
            assert b["mean_abs_error"] == pytest.approx(0.1)
            assert b["variance"] == pytest.approx(0.0, abs=1e-12)
            assert b["median"] == pytest.approx(0.1)

    def test_half_open_bins(self):
        stats = range_error_stats([(1.2, 1.0), (2.3, 2.0)])
        counts = {(b["lo"], b["hi"]): b["count"] for b in stats.bins}
        assert counts[(1.0, 2.0)] == 1
        assert counts[(2.0, 3.0)] == 1
        assert counts[(0.5, 1.0)] == 0

    def test_out_of_band_and_missing_skipped(self):
        stats = range_error_stats([(0.3, 0.2), (8.0, 7.5), (None, 3.0)])
        assert all(b["count"] == 0 for b in stats.bins)

    def test_quartiles_match_numpy(self):
        rng = np.random.default_rng(2)
        errs = rng.uniform(0.0, 0.4, 100)
        pairs = [(3.0 + e, 3.0) for e in errs]
        b = next(x for x in range_error_stats(pairs).bins if x["lo"] == 3.0)
        q1, med, q3 = np.percentile(errs, [25, 50, 75])
        assert b["q1"] == pytest.approx(q1)
        assert b["median"] == pytest.approx(med)
        assert b["q3"] == pytest.approx(q3)

    def test_empty_bin_has_no_statistics(self):
        # A bin without an estimate must not read as a perfect one.
        stats = range_error_stats([(3.1, 3.0), (None, 2.5)])
        lines = "".join(metrics_lines(None, stats)).splitlines()
        assert "range_bin_3_4_mae 0.100000" in lines
        assert "range_bin_2_3_count 0" in lines
        for key in ("mae", "var", "q1", "median", "q3"):
            assert f"range_bin_2_3_{key} nan" in lines


class TestRunExperiment:
    def test_scenario_end_to_end(self, tmp_path):
        sc = builtin_scenarios()["corridor2_like"]
        reid, stats, trace = run_experiment(sc, seed=0,
                                            out_dir=str(tmp_path))
        assert reid.ap > 0.5
        assert len(trace) == 450
        assert (tmp_path / "metrics.txt").exists()
        assert (tmp_path / "trace.jsonl").exists()

    def test_metrics_file_deterministic(self, tmp_path):
        sc = builtin_scenarios()["lab_corridor_like"]
        run_experiment(sc, seed=0, out_dir=str(tmp_path / "a"))
        run_experiment(sc, seed=0, out_dir=str(tmp_path / "b"))
        assert (tmp_path / "a" / "metrics.txt").read_bytes() == \
            (tmp_path / "b" / "metrics.txt").read_bytes()
        assert (tmp_path / "a" / "trace.jsonl").read_bytes() == \
            (tmp_path / "b" / "trace.jsonl").read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_no_follower_mode_without_reid(self, name, seed):
        # The FOLLOWING/RE_ID state machine is part of re-ID: without it,
        # every frame's mode is None (null in trace.jsonl).
        sc = builtin_scenarios()[name]
        modes = [{row["mode"] for row in run_experiment(
                     sc, seed=seed, reid_enabled=reid_on)[2]}
                 for reid_on in (False, True)]
        assert modes[0] == {None}
        assert "FOLLOWING" in modes[1] and modes[1] <= {"FOLLOWING", "RE_ID"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", sorted(builtin_scenarios()))
    def test_range_does_not_depend_on_reid(self, name, seed):
        # The tracker never reads re-ID, so neither does the range metric.
        sc = builtin_scenarios()[name]
        bins = [run_experiment(sc, reid_cfg=ReidConfig(mode=mode or "ST"),
                               seed=seed, reid_enabled=mode is not None)[1].bins
                for mode in ("ST", "SLT", None)]
        assert bins[0] == bins[1] == bins[2]

    def test_range_is_the_target_detections_own_track(self, tmp_path):
        # Each frame's est_range is the range of the confirmed track the
        # tracker matched to the target's detection, or null without one;
        # never another track, however near the true range it reads.
        sc = builtin_scenarios()["corridor1_like"]
        run_experiment(sc, reid_cfg=ReidConfig(mode="ST"), seed=0,
                       out_dir=str(tmp_path))
        with open(tmp_path / "trace.jsonl") as f:
            trace = [json.loads(line) for line in f]
        pipe = FollowPipeline(sc.intrinsics, reid_enabled=False, seed=0)
        step, matched = pipe.tracker.step, {}

        def recorded_step(dets):
            out = step(dets)
            matched.clear()
            matched.update(out[1])
            return out
        pipe.tracker.step = recorded_step
        expected = []
        for record in generate(sc, 0):
            result = pipe.process_frame(record)
            k = next((i for i, d in enumerate(record.detections)
                      if d.person_id == sc.target_id), None)
            rx, ry, _ = record.robot_pose
            expected.append(next(
                (round(math.hypot(x - rx, y - ry), 4)
                 for tid, x, y, _ in result.tracks
                 if k is not None and matched.get(tid) == k), None))
        assert [row["est_range"] for row in trace] == expected
        assert 0 < expected.count(None) < len(expected)

    def test_metrics_text_parses_as_key_value(self):
        sc = builtin_scenarios()["lab_corridor_like"]
        reid, stats, _ = run_experiment(sc, seed=0)
        text = "".join(metrics_lines(reid, stats))
        lines = text.strip().splitlines()
        assert lines[0] == "format mpfollow-metrics-2"
        for line in lines:
            key, value = line.split(" ", 1)
            assert key and value

    def test_sequence_without_robot_pose_is_a_static_robot(self):
        # A static robot's frames with robot_pose removed must track as
        # well as with it: the pipeline starts at the origin, camera forward.
        sc = builtin_scenarios()["lab_corridor_like"]
        frames = generate(sc, 0)
        posed, bare = (FollowPipeline(sc.intrinsics,
                                      target_person_id=sc.target_id, seed=0)
                       for _ in range(2))
        results = [(posed.process_frame(f),
                    bare.process_frame(dataclasses.replace(f, robot_pose=None)))
                   for f in frames]
        assert reid_precision([
            (f.frame_index,
             a.target_box.center if a.target_box else None,
             next((d.box.center for d in f.detections
                   if d.person_id == sc.target_id), None))
            for f, (a, _) in zip(frames, results)]) > 0.9
        assert [repr(a) for a, _ in results] == [repr(b) for _, b in results]
