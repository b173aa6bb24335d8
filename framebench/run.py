"""Frame benchmark of the mpfollow pipeline.

Run from the root of a checkout:

    python3 framebench/run.py --workload drift_slt --seed 0 --seconds 30 --trace 0
    python3 framebench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` makes the
traced run and reports the per-layer metrics. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--workload all`` runs every workload in turn, each in its own process.
"""

import env  # first: pins the BLAS thread count before numpy is loaded

import argparse
import json
import subprocess
import sys

# Listed here as well as in workloads.py, which imports mpfollow: the
# arguments are parsed before the sources are known to be there.
WORKLOAD_NAMES = ("drift_slt", "crowd_track", "replay_similar_st")
MAX_PROBLEMS_SHOWN = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args):
    """Each workload in its own process, so peak RSS belongs to one workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        env.require_source()
    except env.MissingSourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = harness.measure(workload, args.seed, args.seconds, args.trace)
    metrics = harness.per_layer(result) if args.trace else harness.end_to_end(result)

    passes = result.passes
    attempted = sum(p.frames for p in passes)
    failed = sum(p.failed for p in passes)
    frame_problems = [q for p in passes for q in p.problems]
    for q in (result.problems + frame_problems)[:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {q}", file=sys.stderr)
    first = passes[0]
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"blas_threads {env.BLAS_THREADS} passes {len(passes)} "
          f"frames_per_pass {first.frames} ridge_fits_checked {first.fits_checked}")
    for i, p in enumerate(passes):
        print(f"pass {i} traced {int(p.traced)} setup_s {p.setup_s:.4f} "
              f"frame_ms_mean {sum(p.frame_ns) / len(p.frame_ns) / 1e6:.4f}")
    mae, budget = harness.range_mae(first)
    print(f"range_mae {mae:.4f} m, width-model budget {budget:.4f} m")
    if workload.min_hit_rate is not None:
        print(f"target_hit_rate {first.hits / first.hit_frames:.4f} "
              f"({first.hits}/{first.hit_frames} frames)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"attempted {attempted} failed {failed} correct {not result.problems}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
