"""Closed-loop frame driver, passes and metrics of one benchmark run.

Load: one process, one frame in flight. A frame is
``FollowPipeline.process_frame`` followed, when a target is reported, by
``controller.compute_command`` toward it. Frames are fed as fast as the
pipeline takes them, so frames per second is the highest camera rate one
core sustains without a backlog. Only those two calls are timed; the
checks run between frames, outside the timed spans.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

from mpfollow import controller, seqio

import checks
import env
from tracing import Tracer
from workloads import TARGET_PERSON

MIN_FRAMES = 1000        # timed frames: the p99 keeps ten or more beyond it
RIDGE_CHECK_EVERY = 10   # check the first fit and every tenth after it
ACCOUNTED_TOLERANCE_PCT = 2.0   # layer self times vs traced frame time


@dataclass
class PassResult:
    setup_s: float
    generate_s: float
    read_s: float
    frames: int
    frame_ns: list
    failed: int
    problems: list
    digest: str
    hits: int
    hit_frames: int
    range_errors: list
    range_budgets: list
    fits: int
    fits_checked: int
    read_problems: list    # frames read back from the sequence file
    traced: bool = False


@dataclass
class RunResult:
    passes: list
    generate_s: float = 0.0    # one-off generation of a replayed sequence
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None


def robot_frame(position, pose):
    """World (x, y) into the frame of a robot at pose (x, y, heading)."""
    rx, ry, heading = pose
    dx, dy = position[0] - rx, position[1] - ry
    c, s = math.cos(heading), math.sin(heading)
    return (c * dx + s * dy, -s * dx + c * dy)


def drive(workload, frames, pipe, pixel_std, ridge_every=0):
    """Run one pass over ``frames`` and check every frame's output."""
    clock = time.perf_counter_ns
    gains, pid = controller.PidGains(), controller.PidState()
    target_allowed = workload.min_hit_rate is not None
    frame_ns, problems, outputs, centers = [], [], [], []
    errors, budgets = [], []
    failed = fits = checked = 0
    prev_t, had_target = None, False
    for rec in frames:
        dt = 0.1 if prev_t is None else rec.timestamp - prev_t
        prev_t = rec.timestamp
        prev_w = pipe.classifier.w
        try:
            t0 = clock()
            res = pipe.process_frame(rec)
            spent = clock() - t0
            if res.target_track_id is not None:
                xy = robot_frame(res.target_position, rec.robot_pose)
                t0 = clock()
                _, pid = controller.compute_command(xy, dt, gains, pid)
                spent += clock() - t0
            elif had_target:
                pid = controller.reset(pid)
        except Exception as e:   # a frame that raises is counted as failed
            failed += 1
            problems.append(f"frame {rec.frame_index}: {type(e).__name__}: {e}")
            outputs.append(("error", None, []))
            centers.append(None)
            continue
        frame_ns.append(spent)
        had_target = res.target_track_id is not None

        found = checks.frame_problems(res.mode, res.target_track_id, res.scores,
                                      target_allowed)
        clf = pipe.classifier
        if clf.w is not prev_w:
            fits += 1
            if ridge_every and (fits - 1) % ridge_every == 0:
                checked += 1
                found += checks.ridge_problems(pipe.sample_set.samples(),
                                               clf.lam, clf.w, clf.b)
        if found:
            failed += 1
            problems.extend(f"frame {rec.frame_index}: {p}" for p in found)

        rows = [(tid, x, y, None if box is None else checks.box_key(box))
                for tid, x, y, box in res.tracks]
        outputs.append((res.mode, res.target_track_id, rows))
        box = res.target_box
        centers.append(None if box is None else checks.box_center(box))
        e, b = checks.range_terms(rec, res.tracks, pipe.intr,
                                  pipe.tracker_cfg.r_body, pixel_std)
        errors.extend(e)
        budgets.extend(b)

    hits, hit_frames = checks.hit_counts(frames, centers, TARGET_PERSON)
    return dict(frame_ns=frame_ns, failed=failed, problems=problems,
                digest=checks.frame_digest(outputs), hits=hits,
                hit_frames=hit_frames, range_errors=errors,
                range_budgets=budgets, fits=fits, fits_checked=checked)


def run_pass(workload, seed, path, pixel_std, reference, ridge_every, tracer=None):
    """One pass: set up from scratch (inputs and pipeline), then drive it."""
    gc.collect()
    t0 = time.perf_counter()
    inputs = workload.load(seed, path)
    pipe = workload.pipeline(seed)
    setup_s = time.perf_counter() - t0
    read_problems = []
    if reference is not None:
        read_problems = checks.sequence_problems(reference, inputs.frames)
    if tracer is not None:
        tracer.active = True
    try:
        out = drive(workload, inputs.frames, pipe, pixel_std, ridge_every)
    finally:
        if tracer is not None:
            tracer.active = False
    return PassResult(setup_s=setup_s, generate_s=inputs.generate_s,
                      read_s=inputs.read_s, frames=len(inputs.frames),
                      read_problems=read_problems, traced=tracer is not None, **out)


def measure(workload, seed, seconds, trace):
    """Pairs of passes over the workload until ``seconds`` have gone by.

    Every pass sets up afresh and runs the same frames. In an untraced run
    the two passes of a pair give each frame two timings for the p99 (see
    ``paired_frame_ns``). A traced run pairs an untraced pass with a traced
    one, so the tracing overhead is measured in one process under the same
    host conditions.
    """
    pixel_std = workload.scenario(seed).box_pixel_std
    result = RunResult([])
    path = reference = None
    if workload.from_file:
        t0 = time.perf_counter()
        reference = workload.generate(seed)
        result.generate_s = time.perf_counter() - t0
        os.makedirs(env.OUT_DIR, exist_ok=True)
        path = os.path.join(env.OUT_DIR, f"{workload.name}-{seed}-{os.getpid()}.jsonl")
        seqio.write_sequence(reference, path)
    tracer = None
    if trace:
        tracer = Tracer(keep_spans=True)
        tracer.install()
    try:
        start = time.perf_counter()
        while True:
            first = not result.passes
            traced = trace and len(result.passes) % 2 == 1
            if len(result.passes) % 2 == 0:
                pair_start = time.perf_counter()
            result.passes.append(run_pass(
                workload, seed, path, pixel_std, reference,
                RIDGE_CHECK_EVERY if first else 0,
                tracer if traced else None))
            now = time.perf_counter()
            if traced and tracer.spans is not None:
                _write_spans(tracer.spans, workload.name, seed)
                tracer.spans = None
            if len(result.passes) % 2:
                continue
            timed = len(result.passes) // 2 * result.passes[0].frames
            # Stop at the pair boundary nearest the deadline.
            if timed >= MIN_FRAMES and now + (now - pair_start) / 2 >= start + seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if path is not None and os.path.exists(path):
            os.unlink(path)
    result.tracer = tracer
    result.problems = run_problems(workload, result)
    return result


def _write_spans(spans, name, seed):
    os.makedirs(env.OUT_DIR, exist_ok=True)
    path = os.path.join(env.OUT_DIR, f"spans-{name}-{seed}.jsonl")
    with open(path, "w") as f:
        for layer, start, end, parent in spans:
            f.write(json.dumps({"layer": layer, "start_ns": start,
                                "end_ns": end, "parent": parent}) + "\n")


def run_problems(workload, result):
    """Checks over whole passes; any problem makes the run incorrect."""
    problems = [p for ps in result.passes for p in ps.read_problems]
    first = result.passes[0]
    if len({p.digest for p in result.passes}) != 1:
        problems.append("the (mode, target, track rows) sequence differs "
                        "between passes over the same frames")
    if workload.min_hit_rate is not None:
        rate = first.hits / first.hit_frames if first.hit_frames else 0.0
        if rate < workload.min_hit_rate:
            problems.append(f"target hit rate {rate:.3f} at {checks.HIT_RADIUS_PX:g} px "
                            f"is below {workload.min_hit_rate}")
        if first.fits_checked == 0:
            problems.append("no ridge fit was checked")
    elif first.fits:
        problems.append(f"{first.fits} ridge fits with re-ID off")
    mae, budget = range_mae(first)
    if not mae <= budget:
        problems.append(f"range MAE {mae:.4f} m exceeds the width-model "
                        f"budget {budget:.4f} m")
    if result.tracer is not None:
        accounted = accounted_pct(result)
        if not abs(accounted - 100.0) <= ACCOUNTED_TOLERANCE_PCT:
            problems.append(f"layer self times account for {accounted:.2f}% of "
                            f"the traced frame time")
    return problems


def accounted_pct(result):
    """Sum of all layers' self times as a share of the traced frame time."""
    traced_ns = sum(sum(p.frame_ns) for p in result.passes if p.traced)
    return 100.0 * sum(result.tracer.self_ns.values()) / traced_ns


def range_mae(p):
    if not p.range_errors:
        return math.inf, 0.0
    return statistics.fmean(p.range_errors), statistics.fmean(p.range_budgets)


# ---------------------------------------------------------------------------
# Metrics


def paired_frame_ns(passes):
    """Frame times for the tail, each the lower of a frame's two timings in a pass pair.

    Both passes of a pair run the same frames through a fresh pipeline and
    give the same outputs, so a frame's two timings differ only by what the
    host did meanwhile. Taking the lower keeps a frame that is slow in
    every pass in the tail and drops a host burst that hit one pass.
    """
    return [min(a, b) for p, q in zip(passes[0::2], passes[1::2])
            for a, b in zip(p.frame_ns, q.frame_ns)]


def end_to_end(result):
    passes = result.passes
    frame_ns = [t for p in passes for t in p.frame_ns]
    return {
        "frame_ms_p50": (statistics.median(frame_ns) / 1e6, "ms"),
        "frame_ms_p99": (statistics.quantiles(paired_frame_ns(passes), n=100)[98] / 1e6,
                         "ms"),
        "frames_per_s": (len(frame_ns) * 1e9 / sum(frame_ns), "frames/s"),
        "setup_s": (statistics.median(p.setup_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "range_mae_m": (range_mae(result.passes[0])[0], "m"),
    }


def per_layer(result):
    tracer = result.tracer
    traced = [p for p in result.passes if p.traced]
    plain = [p for p in result.passes if not p.traced]
    frames = tracer.calls["pipeline"]

    def per_call(layer, unit_ns, self_time=False):
        calls = tracer.calls[layer]
        ns = (tracer.self_ns if self_time else tracer.total_ns)[layer]
        return ns / calls / unit_ns if calls else 0.0

    def per_frame(n):
        return n / frames if frames else 0.0

    def mean_frame_ms(ps):
        return statistics.median(statistics.fmean(p.frame_ns) for p in ps) / 1e6

    def per_input_frame(ps, attr, fallback=0.0):
        values = [getattr(p, attr) / p.frames for p in ps if getattr(p, attr)]
        return statistics.median(values) * 1e3 if values else fallback

    traced_ms, plain_ms = mean_frame_ms(traced), mean_frame_ms(plain)
    c = tracer.counts
    us, ms = 1e3, 1e6
    m = {
        "reid.train_ms": (per_call("reid.train", ms), "ms"),
        "reid.train_calls": (per_frame(tracer.calls["reid.train"]), "count"),
        "reid.train_rows": (per_frame(c["reid.train_rows"]), "count"),
        "reid.train_skipped": (per_frame(c["reid.train_skipped"]), "count"),
        "reid.extract_us": (per_call("reid.extract", us), "us"),
        "reid.extract_calls": (per_frame(tracer.calls["reid.extract"]), "count"),
        "reid.score_us": (per_call("reid.score", us), "us"),
        "reid.label_us": (per_call("reid.label", us), "us"),
        "reid.sample_insert_us": (per_call("reid.sample_insert", us), "us"),
        "reid.state_us": (per_call("reid.state", us), "us"),
        "geometry.extrinsics_us": (per_call("geometry.extrinsics", us), "us"),
        "geometry.observation_model_us": (per_call("geometry.observation_model", us),
                                          "us"),
        "geometry.measure_us": (per_call("geometry.measure", us), "us"),
        "tracker.overlap_us": (per_call("tracker.overlap", us), "us"),
        "tracker.associate_us": (per_call("tracker.associate", us), "us"),
        "tracker.predict_us": (per_call("tracker.predict", us), "us"),
        "tracker.update_us": (per_call("tracker.update", us), "us"),
        "tracker.step_self_us": (per_call("tracker.step", us, self_time=True), "us"),
        "tracker.detections_in": (per_frame(c["tracker.detections_in"]), "count"),
        "tracker.detections_kept": (per_frame(c["tracker.detections_kept"]), "count"),
        "tracker.matched": (per_frame(c["tracker.matched"]), "count"),
        "tracker.tracks_created": (per_frame(c["tracker.tracks_created"]), "count"),
        "pipeline.self_us": (per_call("pipeline", us, self_time=True), "us"),
        "controller.command_us": (per_call("controller.command", us), "us"),
        "controller.command_calls": (per_frame(tracer.calls["controller.command"]),
                                     "count"),
        "sim.generate_ms": (per_input_frame(traced, "generate_s",
                                            result.generate_s / traced[0].frames * 1e3),
                            "ms"),
        "seqio.read_ms": (per_input_frame(traced, "read_s"), "ms"),
        "trace.frame_ms": (traced_ms, "ms"),
        "trace.untraced_frame_ms": (plain_ms, "ms"),
        "trace.overhead_pct": (100.0 * (traced_ms / plain_ms - 1.0), "%"),
        "trace.accounted_pct": (accounted_pct(result), "%"),
    }
    return m
