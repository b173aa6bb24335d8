"""Evaluation harness: re-ID precision, range-error statistics, experiments.

Re-ID quality is the fraction of ground-truth frames whose estimated
target box center falls within 50 px (THRESHOLD_PX) of the ground-truth
center; frames without an estimate count as failures. Range accuracy is
the absolute range error of the track matched to the target's own
detection, binned by true range.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .pipeline import FollowPipeline
from .seqio import write_jsonl, write_text
from .sim import Scenario, generate

METRICS_FORMAT = "mpfollow-metrics-2"
THRESHOLD_PX = 50.0
PRECISION_KEY = f"precision@{THRESHOLD_PX:g}px"
RANGE_BINS = [(0.5, 1.0)] + [(float(a), float(a + 1)) for a in range(1, 7)]


class EvaluationError(ValueError):
    pass


@dataclass
class ReidResult:
    ap: float                         # precision at THRESHOLD_PX


@dataclass
class RangeErrorStats:
    bins: list                        # per-bin dicts


def reid_precision(frames):
    """Precision of target localization within THRESHOLD_PX.

    frames: iterable of (frame_index, est_center or None, gt_center or None).
    Frames without ground truth are skipped; frames with ground truth but
    no estimate are misses.
    """
    evaluated = [(est, gt) for _, est, gt in frames if gt is not None]
    if not evaluated:
        raise EvaluationError("no frames with ground truth")
    hits = sum(1 for est, gt in evaluated if est is not None
               and math.hypot(est[0] - gt[0], est[1] - gt[1]) <= THRESHOLD_PX)
    return hits / len(evaluated)


def range_error_stats(pairs) -> RangeErrorStats:
    """Absolute range-error statistics binned by true range.

    pairs: iterable of (estimated_range or None, true_range); frames with
    no estimate are skipped, and a bin with none has NaN statistics.
    """
    pairs = [(est, true) for est, true in pairs if est is not None]
    bins = []
    for lo, hi in RANGE_BINS:
        e = np.array([abs(est - true) for est, true in pairs
                      if lo <= true < hi])
        stats = ([e.mean(), e.var(), *np.percentile(e, [25, 50, 75])]
                 if e.size else [math.nan] * 5)
        mae, var, q1, med, q3 = map(float, stats)
        bins.append({"lo": lo, "hi": hi, "count": int(e.size),
                     "mean_abs_error": mae, "variance": var,
                     "q1": q1, "median": med, "q3": q3})
    return RangeErrorStats(bins)


def _range(record, xy):
    """The robot's distance to xy in the frame; None if xy or the pose is."""
    if xy is None or record.robot_pose is None:
        return None
    rx, ry, _ = record.robot_pose
    return math.hypot(xy[0] - rx, xy[1] - ry)


def run_experiment(scenario: Scenario, tracker_cfg=None, reid_cfg=None, seed=0,
                   reid_enabled=True, out_dir=None):
    """Run the full pipeline over the frames the scenario generates.

    Returns (ReidResult or None without re-ID, RangeErrorStats, trace)
    where trace is the list of per-frame dicts also written to disk when
    out_dir is given. A frame's range estimate is that of the track
    matched to the target's own detection (a row's box is its detection's
    box object); a frame without one has no estimate.
    """
    target_id = scenario.target_id
    pipe = FollowPipeline(scenario.intrinsics, tracker_cfg, reid_cfg,
                          target_person_id=target_id,
                          reid_enabled=reid_enabled, seed=seed)

    reid_frames, range_pairs, trace = [], [], []
    for record in generate(scenario, seed):
        result = pipe.process_frame(record)
        det = next((d for d in record.detections
                    if d.person_id == target_id), None)
        gt_center = det.box.center if det else None
        est_center = result.target_box.center if result.target_box else None
        reid_frames.append((record.frame_index, est_center, gt_center))

        true_range = _range(record, record.pedestrian_positions.get(target_id))
        est_range = next((_range(record, (x, y))
                          for _, x, y, box in result.tracks
                          if det and box is det.box), None)
        if true_range is not None:
            range_pairs.append((est_range, true_range))

        trace.append({
            "frame_index": record.frame_index,
            "mode": result.mode,
            "target_track_id": result.target_track_id,
            "est_center": [round(v, 3) for v in est_center] if est_center else None,
            "gt_center": [round(v, 3) for v in gt_center] if gt_center else None,
            "est_range": round(est_range, 4) if est_range is not None else None,
            "true_range": round(true_range, 4) if true_range is not None else None,
            "n_tracks": len(result.tracks),
        })

    reid_result = (ReidResult(reid_precision(reid_frames)) if reid_enabled
                   else None)
    stats = range_error_stats(range_pairs)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_text(metrics_lines(reid_result, stats),
                   os.path.join(out_dir, "metrics.txt"))
        write_jsonl(trace, os.path.join(out_dir, "trace.jsonl"))
    return reid_result, stats, trace


def metrics_lines(reid_result: ReidResult | None, stats: RangeErrorStats):
    """metrics.txt line by line: a flat key-value rendering (deterministic);
    the precision only for a run with re-ID."""
    yield f"format {METRICS_FORMAT}\n"
    if reid_result is not None:
        yield f"precision_threshold_px {THRESHOLD_PX:g}\n"
        yield f"{PRECISION_KEY} {reid_result.ap:.6f}\n"
    for b in stats.bins:
        key = f"range_bin_{b['lo']:g}_{b['hi']:g}"
        yield f"{key}_count {b['count']}\n"
        yield f"{key}_mae {b['mean_abs_error']:.6f}\n"
        yield f"{key}_var {b['variance']:.6f}\n"
        yield f"{key}_q1 {b['q1']:.6f}\n"
        yield f"{key}_median {b['median']:.6f}\n"
        yield f"{key}_q3 {b['q3']:.6f}\n"
