"""Evaluation harness: re-ID precision, range-error statistics, experiments.

Re-ID quality is the fraction of ground-truth frames whose estimated
target box center falls within 50 px (THRESHOLD_PX) of the ground-truth
center; frames without an estimate count as failures. Range accuracy is
the absolute range error binned by true range.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .pipeline import FollowPipeline
from .sim import DEFAULT_INTRINSICS, Scenario, generate

METRICS_FORMAT = "mpfollow-metrics-1"
THRESHOLD_PX = 50.0
RANGE_BINS = [(0.5, 1.0)] + [(float(a), float(a + 1)) for a in range(1, 7)]


class EvaluationError(ValueError):
    pass


@dataclass
class ReidResult:
    frames: list                      # (frame_index, est_center, gt_center)
    ap: float = 0.0                   # precision at THRESHOLD_PX


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
    no estimate are skipped (range accuracy is a tracking property).
    """
    errors = {b: [] for b in RANGE_BINS}
    for est, true in pairs:
        if est is None:
            continue
        for lo, hi in RANGE_BINS:
            if lo <= true < hi:
                errors[(lo, hi)].append(abs(est - true))
                break
    bins = []
    for (lo, hi) in RANGE_BINS:
        e = np.array(errors[(lo, hi)])
        if e.size:
            q1, med, q3 = np.percentile(e, [25, 50, 75])
            bins.append({"lo": lo, "hi": hi, "count": int(e.size),
                         "mean_abs_error": float(e.mean()),
                         "variance": float(e.var()),
                         "q1": float(q1), "median": float(med),
                         "q3": float(q3)})
        else:
            bins.append({"lo": lo, "hi": hi, "count": 0,
                         "mean_abs_error": 0.0, "variance": 0.0,
                         "q1": 0.0, "median": 0.0, "q3": 0.0})
    return RangeErrorStats(bins)


def _gt_target_center(record, target_id):
    for det in record.detections:
        if det.person_id == target_id:
            return det.box.center
    return None


def _true_range(record, target_id):
    pos = record.pedestrian_positions.get(target_id)
    if pos is None or record.robot_pose is None:
        return None
    rx, ry, _ = record.robot_pose
    return math.hypot(pos[0] - rx, pos[1] - ry)


def _estimated_range(result, record):
    if result.target_position is None or record.robot_pose is None:
        return None
    rx, ry, _ = record.robot_pose
    x, y = result.target_position
    return math.hypot(x - rx, y - ry)


def run_experiment(source, tracker_cfg=None, reid_cfg=None, seed=0,
                   reid_enabled=True, out_dir=None):
    """Run the full pipeline over a scenario or pre-generated frames.

    Returns (ReidResult, RangeErrorStats, trace) where trace is the list
    of per-frame dicts also written to disk when out_dir is given.
    """
    if isinstance(source, Scenario):
        frames = generate(source, seed)
        target_id = source.target_id
        intr = source.intrinsics
    else:
        frames = source
        target_id = 0
        intr = DEFAULT_INTRINSICS

    pipe = FollowPipeline(intr, tracker_cfg, reid_cfg,
                          target_person_id=target_id,
                          reid_enabled=reid_enabled, seed=seed)

    reid_frames, range_pairs, trace = [], [], []
    for record in frames:
        result = pipe.process_frame(record)
        gt_center = _gt_target_center(record, target_id)
        est_center = result.target_box.center if result.target_box else None
        reid_frames.append((record.frame_index, est_center, gt_center))

        true_range = _true_range(record, target_id)
        est_range = _estimated_range(result, record)
        if est_range is None and true_range is not None and result.tracks:
            # Range accuracy is a tracker property; with re-ID disabled (or
            # before designation) fall back to the track nearest in range.
            rx, ry, _ = record.robot_pose
            ranges = [math.hypot(x - rx, y - ry)
                      for _, x, y, _ in result.tracks]
            est_range = min(ranges, key=lambda r: abs(r - true_range))
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

    reid_result = ReidResult(reid_frames, reid_precision(reid_frames))
    stats = range_error_stats(range_pairs)

    if out_dir is not None:
        write_artifacts(out_dir, reid_result, stats, trace)
    return reid_result, stats, trace


def metrics_text(reid_result: ReidResult, stats: RangeErrorStats) -> str:
    """Flat key-value rendering of the metrics (deterministic)."""
    lines = [f"format {METRICS_FORMAT}"]
    lines.append(f"precision_threshold_px {THRESHOLD_PX:g}")
    lines.append(f"ap {reid_result.ap:.6f}")
    lines.append(f"precision@{THRESHOLD_PX:g}px {reid_result.ap:.6f}")
    for b in stats.bins:
        key = f"range_bin_{b['lo']:g}_{b['hi']:g}"
        lines.append(f"{key}_count {b['count']}")
        lines.append(f"{key}_mae {b['mean_abs_error']:.6f}")
        lines.append(f"{key}_var {b['variance']:.6f}")
        lines.append(f"{key}_q1 {b['q1']:.6f}")
        lines.append(f"{key}_median {b['median']:.6f}")
        lines.append(f"{key}_q3 {b['q3']:.6f}")
    return "\n".join(lines) + "\n"


def write_artifacts(out_dir, reid_result, stats, trace):
    from .seqio import _atomic_write
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "metrics.txt"),
                  metrics_text(reid_result, stats))
    _atomic_write(os.path.join(out_dir, "trace.jsonl"),
                  "\n".join(json.dumps(row) for row in trace) + "\n")
