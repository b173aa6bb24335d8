"""Command-line interface: generate, track, experiment, validate-config."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from . import evaluation, seqio, sim
from .pipeline import FollowPipeline
from .reid import ReidConfig
from .sim import DEFAULT_INTRINSICS
from .tracker import TrackerConfig

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_USAGE = 3
EXIT_RUNTIME = 4

# Each experiment: its built-in scenario, its header line (or None) and its
# runs, each (output subdirectory, label, the TrackerConfig fields it sets,
# the ReidConfig fields it sets or None: no re-ID).
EXPERIMENTS = {
    "st-sweep": ("room_like", "scenario=room_like mode=ST capacity sweep", [
        (f"st_{cap}", f"GRR_ST_{cap}", {}, {"mode": "ST", "capacity": cap})
        for cap in (16, 32, 64, 128)]),
    "slt-vs-st": (
        "corridor1_like", "scenario=corridor1_like GRR_SLT_64 vs GRR_ST_64", [
            (f"{m.lower()}_64", f"GRR_{m}_64", {}, {"mode": m, "capacity": 64})
            for m in ("ST", "SLT")]),
    "range-accuracy": ("range_sweep", None, [(
        "range_accuracy", "range-accuracy",
        {"measurement_noise_std": 0.3, "gate_distance": 2.0}, None)]),
}


class CliError(Exception):
    def __init__(self, category, message, code):
        super().__init__(message)
        self.category = category
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's exit 2 means a bad input file here
        raise CliError("usage", f"{self.prog}: {message}", EXIT_USAGE)


def _resolve_scenario(name_or_path):
    builtins = sim.builtin_scenarios()
    if name_or_path in builtins:
        return builtins[name_or_path]
    if not os.path.exists(name_or_path):
        raise CliError("usage",
                       f"unknown scenario '{name_or_path}' (built-ins: "
                       f"{', '.join(sorted(builtins))})", EXIT_USAGE)
    return seqio.load_scenario(name_or_path)


def _runs(args, command, runs):
    """Each (output, label, TrackerConfig fields, ReidConfig fields or None)
    run with the flags' configs, the run's fields set (None: no re-ID); a
    bad value or a flag that no run reads is refused with error[config]."""
    try:
        tracker_cfg, reid_cfg = (
            cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                   if getattr(args, f.name, None) is not None})
            for cls in (TrackerConfig, ReidConfig))
    except ValueError as e:
        raise CliError("config", str(e), EXIT_USAGE)
    unread = " or ".join(dict.fromkeys(  # fields a run sets, re-ID without it
        f"--{f.replace('_', '-')}" for _, _, tracker, reid in runs
        for f in (*tracker, *(vars(reid_cfg) if reid is None else reid))
        if getattr(args, f, None) is not None))
    if unread:
        raise CliError("config", f"{command} takes no {unread}", EXIT_USAGE)
    return [(out, label, replace(tracker_cfg, **tracker),
             None if reid is None else replace(reid_cfg, **reid))
            for out, label, tracker, reid in runs]


def _print_config(args, runs):
    """Under --print-config, one JSON object per run: what the run is given."""
    for _, label, tracker, reid in runs if args.print_config else ():
        print(json.dumps({"run": label, "seed": args.seed,
                          "tracker": vars(tracker), "reid": reid and vars(reid)},
                         indent=2, sort_keys=True))


def cmd_generate(args):
    seqio.check_output(args.out)
    frames = sim.generate(_resolve_scenario(args.scenario), args.seed)
    seqio.write_sequence(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def cmd_track(args):
    """Check the configs, -o, --calibration, then the sequence; then track,
    writing each frame's rows as it is tracked."""
    [(_, _, tracker_cfg, reid_cfg)] = runs = _runs(args, "track --no-reid", [(
        args.out, args.out, {}, None if args.no_reid else {})])
    seqio.check_output(args.out)
    intr, mount = DEFAULT_INTRINSICS, None
    if args.calibration:
        intr, mount = seqio.load_calibration(args.calibration)
    frames = seqio.read_sequence(args.sequence)
    person = args.target_person  # designation needs one of its descriptors
    if reid_cfg is not None and any(f.detections for f in frames) and all(
            d.descriptor is None or d.person_id != person
            for f in frames for d in f.detections):
        raise CliError("config", "re-ID enabled but the sequence carries no "
                       f"descriptors of person {person} (rerun with "
                       "--no-reid or --target-person)", EXIT_USAGE)
    _print_config(args, runs)

    pipe = FollowPipeline(intr, tracker_cfg, reid_cfg,
                          target_person_id=args.target_person,
                          reid_enabled=reid_cfg is not None, seed=args.seed,
                          mount=mount)

    def rows():
        for record in frames:
            result = pipe.process_frame(record)
            for tid, x, y, box in result.tracks:
                yield {
                    "frame_index": record.frame_index,
                    "track_id": tid,
                    "x": round(x, 6), "y": round(y, 6),
                    "box": [round(v, 3) for v in box.as_array().tolist()]
                    if box is not None else None,
                    "is_target": tid == result.target_track_id or None,
                }
    count = seqio.write_jsonl(rows(), args.out)
    print(f"wrote {count} track rows to {args.out}")
    return EXIT_OK


def cmd_experiment(args):
    """Run a named experiment or built-in scenario, each run as _runs gives."""
    scenarios, name = sim.builtin_scenarios(), args.name
    scenario, header, runs = EXPERIMENTS.get(
        name, (name, None, [(name, name, {}, {})]))
    runs = _runs(args, f"experiment {name}", runs)
    if scenario not in scenarios:
        raise CliError("usage", f"unknown experiment '{name}'", EXIT_USAGE)
    os.makedirs(args.out_dir, exist_ok=True)  # a bad one fails before any run
    _print_config(args, runs)
    if header:
        print(header)
    for subdir, label, tracker, reid in runs:
        r, stats, _ = evaluation.run_experiment(
            scenarios[scenario], tracker, reid, reid_enabled=reid is not None,
            seed=args.seed, out_dir=os.path.join(args.out_dir, subdir))
        if reid is not None:
            print(f"{label} {evaluation.PRECISION_KEY} {r.ap:.3f}")
        else:  # a run without re-ID reports its range accuracy
            print("bin_lo bin_hi count mae", *(
                f"{b['lo']:g} {b['hi']:g} {b['count']} "
                f"{b['mean_abs_error']:.4f}" for b in stats.bins), sep="\n")
    return EXIT_OK


def cmd_validate_config(args):
    load = {"scenario": seqio.load_scenario,
            "calibration": seqio.load_calibration}[args.kind]
    load(args.path)
    print(f"{args.path}: valid {args.kind}")
    return EXIT_OK


def build_parser():
    p = _Parser(
        prog="mpfollow",
        description="Width-based monocular person following toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="render a scenario to a sequence file")
    g.add_argument("scenario", help="built-in name or scenario YAML path")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=cmd_generate)

    # Flags that track and experiment share.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--delta-iou", type=float)
    common.add_argument("--r-body", type=float)
    common.add_argument("--delta-switch", type=float)
    common.add_argument("--delta-id", type=float)
    common.add_argument("--n-id", type=int)
    common.add_argument("--capacity", type=int)
    common.add_argument("--mode", choices=("ST", "SLT"))
    common.add_argument("--lam", type=float)
    common.add_argument("--print-config", action="store_true")

    t = sub.add_parser("track", parents=[common],
                       help="run the tracker over a sequence file")
    t.add_argument("sequence")
    t.add_argument("--calibration")
    t.add_argument("--no-reid", action="store_true",
                   help="disable re-identification (pure tracking)")
    t.add_argument("--target-person", type=int, default=0)
    t.add_argument("-o", "--out", default="tracks.jsonl")
    t.set_defaults(func=cmd_track)

    e = sub.add_parser("experiment", parents=[common],
                       help="run a named experiment")
    e.add_argument("name", help="st-sweep | slt-vs-st | range-accuracy | "
                                "<built-in scenario name>")
    e.add_argument("--out-dir", default=".")
    e.set_defaults(func=cmd_experiment)

    v = sub.add_parser("validate-config", help="validate a config file")
    v.add_argument("kind", choices=("scenario", "calibration"))
    v.add_argument("path")
    v.set_defaults(func=cmd_validate_config)
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # validate-config takes no seed
            raise CliError("usage", "--seed must be at least 0", EXIT_USAGE)
        return args.func(args)
    except CliError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.code
    except seqio.SchemaError as e:  # a malformed input file
        print(f"error[schema]: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as e:  # a path missing, a directory, unwritable, ...
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
