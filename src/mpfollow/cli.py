"""Command-line interface: generate, track, experiment, validate-config."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import evaluation, seqio, sim
from .pipeline import FollowPipeline
from .reid import ReidConfig
from .sim import DEFAULT_INTRINSICS
from .tracker import TrackerConfig

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_USAGE = 3
EXIT_RUNTIME = 4

# Named experiments; `experiment` also runs any built-in scenario by name.
EXPERIMENTS = ("st-sweep", "slt-vs-st", "range-accuracy")


class CliError(Exception):
    def __init__(self, category, message, code):
        super().__init__(message)
        self.category = category
        self.code = code


def _resolve_scenario(name_or_path):
    builtins = sim.builtin_scenarios()
    if name_or_path in builtins:
        return builtins[name_or_path]
    if not os.path.exists(name_or_path):
        raise CliError("usage",
                       f"unknown scenario '{name_or_path}' (built-ins: "
                       f"{', '.join(sorted(builtins))})", EXIT_USAGE)
    try:
        return seqio.load_scenario(name_or_path)
    except seqio.SchemaError as e:
        raise CliError("schema", str(e), EXIT_SCHEMA)


def _out_dir(args):
    return args.out_dir or os.environ.get("MPFOLLOW_OUT_DIR", ".")


def _config(cls, **flags):
    """cls from the config flags given on the command line, or error[config]."""
    try:
        return cls(**{name: v for name, v in flags.items() if v is not None})
    except ValueError as e:
        raise CliError("config", str(e), EXIT_USAGE)


def _tracker_config(args):
    return _config(TrackerConfig, delta_iou=args.delta_iou, r_body=args.r_body)


def _reid_config(args):
    return _config(ReidConfig, delta_switch=args.delta_switch,
                   delta_id=args.delta_id, n_id=args.n_id,
                   capacity=args.capacity, mode=args.mode, lam=args.lam)


def _print_config(args, tracker_cfg, reid_cfg):
    if args.print_config:
        resolved = {"tracker": vars(tracker_cfg), "reid": vars(reid_cfg),
                    "seed": args.seed}
        print(json.dumps(resolved, indent=2, sort_keys=True))


def cmd_generate(args):
    frames = sim.generate(_resolve_scenario(args.scenario), args.seed)
    seqio.write_sequence(frames, args.out)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def cmd_track(args):
    try:
        frames = seqio.read_sequence(args.sequence)
    except seqio.SchemaError as e:
        raise CliError("schema", str(e), EXIT_SCHEMA)
    tracker_cfg = _tracker_config(args)
    reid_cfg = _reid_config(args)
    _print_config(args, tracker_cfg, reid_cfg)

    if not args.no_reid:
        missing = all(d.descriptor is None
                      for f in frames for d in f.detections)
        if missing and any(f.detections for f in frames):
            raise CliError(
                "config",
                "re-ID enabled but the sequence carries no descriptors "
                "(rerun with --no-reid or provide descriptors)", EXIT_USAGE)

    intr = DEFAULT_INTRINSICS
    if args.calibration:
        try:
            intr, _ = seqio.load_calibration(args.calibration)
        except seqio.SchemaError as e:
            raise CliError("schema", str(e), EXIT_SCHEMA)

    pipe = FollowPipeline(intr, tracker_cfg, reid_cfg,
                          target_person_id=args.target_person,
                          reid_enabled=not args.no_reid, seed=args.seed)
    rows = []
    for record in frames:
        result = pipe.process_frame(record)
        for tid, x, y, box in result.tracks:
            rows.append({
                "frame_index": record.frame_index,
                "track_id": tid,
                "x": round(x, 6), "y": round(y, 6),
                "box": [round(v, 3) for v in box.as_array().tolist()]
                if box is not None else None,
                "is_target": (not args.no_reid
                              and tid == result.target_track_id) or None,
            })
    out = args.out or os.path.join(_out_dir(args), "tracks.jsonl")
    seqio.write_tracks(rows, out)
    print(f"wrote {len(rows)} track rows to {out}")
    return EXIT_OK


def cmd_experiment(args):
    """Run a named experiment with the configs the flags give; a sweep
    overrides only the fields it sweeps, and refuses flags for them."""
    out_dir = _out_dir(args)
    tracker_cfg = _tracker_config(args)
    reid_cfg = _reid_config(args)
    seed = args.seed
    scenarios = sim.builtin_scenarios()
    name = args.name
    if name not in EXPERIMENTS and name not in scenarios:
        raise CliError("usage", f"unknown experiment '{name}'", EXIT_USAGE)
    if name in ("st-sweep", "slt-vs-st") and (
            args.mode is not None or args.capacity is not None):
        raise CliError("config", f"experiment {name} sets --mode and "
                       "--capacity itself", EXIT_USAGE)
    _print_config(args, tracker_cfg, reid_cfg)
    if name == "st-sweep":
        print("scenario=room_like mode=ST capacity sweep")
        for cap in (16, 32, 64, 128):
            r, _, _ = evaluation.run_experiment(
                scenarios["room_like"], tracker_cfg,
                replace(reid_cfg, mode="ST", capacity=cap), seed=seed,
                out_dir=os.path.join(out_dir, f"st_{cap}"))
            print(f"GRR_ST_{cap} precision@50px {r.ap:.3f}")
    elif name == "slt-vs-st":
        print("scenario=corridor1_like GRR_SLT_64 vs GRR_ST_64")
        for mode in ("ST", "SLT"):
            r, _, _ = evaluation.run_experiment(
                scenarios["corridor1_like"], tracker_cfg,
                replace(reid_cfg, mode=mode, capacity=64), seed=seed,
                out_dir=os.path.join(out_dir, f"{mode.lower()}_64"))
            print(f"GRR_{mode}_64 precision@50px {r.ap:.3f}")
    elif name == "range-accuracy":
        _, stats, _ = evaluation.run_experiment(
            scenarios["range_sweep"],
            replace(tracker_cfg, measurement_noise_std=0.3, gate_distance=2.0),
            reid_cfg, seed=seed, reid_enabled=False,
            out_dir=os.path.join(out_dir, "range_accuracy"))
        print("bin_lo bin_hi count mae")
        for b in stats.bins:
            print(f"{b['lo']:g} {b['hi']:g} {b['count']} "
                  f"{b['mean_abs_error']:.4f}")
    else:
        r, _, _ = evaluation.run_experiment(
            scenarios[name], tracker_cfg, reid_cfg, seed=seed,
            out_dir=os.path.join(out_dir, name))
        print(f"{name} precision@50px {r.ap:.3f}")
    return EXIT_OK


def cmd_validate_config(args):
    path = args.path
    try:
        if args.kind == "scenario":  # argparse allows no other kind
            seqio.load_scenario(path)
        else:
            seqio.load_calibration(path)
    except seqio.SchemaError as e:
        raise CliError("schema", str(e), EXIT_SCHEMA)
    print(f"{path}: valid {args.kind}")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
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
    common.add_argument("--out-dir")
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
    t.add_argument("-o", "--out")
    t.set_defaults(func=cmd_track)

    e = sub.add_parser("experiment", parents=[common],
                       help="run a named experiment")
    e.add_argument("name", help="st-sweep | slt-vs-st | range-accuracy | "
                                "<built-in scenario name>")
    e.set_defaults(func=cmd_experiment)

    v = sub.add_parser("validate-config", help="validate a config file")
    v.add_argument("kind", choices=("scenario", "calibration"))
    v.add_argument("path")
    v.set_defaults(func=cmd_validate_config)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error[{e.category}]: {e}", file=sys.stderr)
        return e.code
    except FileNotFoundError as e:
        print(f"error[io]: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
