"""SHA-256 digests of mpfollow's observable outputs, to compare two source trees.

Usage: python3 tools/output_digest.py SRC_DIR

SRC_DIR holds the ``mpfollow`` package (a checkout's ``src``). At seed 0
the digest covers:
- the exact repr of every per-frame result (mode, target id, target box
  and position, track rows, scores), and the ``metrics.txt`` and
  ``trace.jsonl`` of each built-in scenario run in ST, in SLT and with
  re-ID off;
- the bytes ``mpfollow track`` writes for room_like and lab_corridor_like
  sequences by default, with ``--no-reid`` and with ``--mode SLT``;
- the exit code, stdout and artifacts of ``mpfollow experiment``
  st-sweep, slt-vs-st and range-accuracy.
It prints two lines. The first digests all these outputs; two trees print
the same first line when all of them are the same. The second, the
decisions digest, leaves out the values of the per-frame scores (it keeps
which tracks were scored), so two trees whose fits differ only by rounding
print the same second line. No file or stdout the CLI writes holds a score.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

MODES = ("ST", "SLT", None)  # None: re-ID off
TRACKED = ("room_like", "lab_corridor_like")
TRACK_FLAGS = ((), ("--no-reid",), ("--mode", "SLT"))
EXPERIMENTS = ("st-sweep", "slt-vs-st", "range-accuracy")


def _import_from(src):
    src = os.path.abspath(src)
    if not os.path.isfile(os.path.join(src, "mpfollow", "__init__.py")):
        sys.exit(f"no mpfollow package in {src}")
    sys.path.insert(0, src)
    import mpfollow
    found = os.path.dirname(os.path.dirname(os.path.abspath(mpfollow.__file__)))
    if found != src:
        sys.exit(f"mpfollow imported from {found}, not from {src}")


class _Digests:
    """The full digest and the decisions digest, fed the same bytes except
    for the per-frame scores."""

    def __init__(self):
        self.full = hashlib.sha256()
        self.decisions = hashlib.sha256()

    def update(self, data):
        self.full.update(data)
        self.decisions.update(data)


def _hash_tree(h, root):
    """Each file under root: its relative path, then its bytes."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())


def _cli(*argv):
    """Run the mpfollow CLI in-process; its exit code and stdout."""
    from mpfollow import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def digest(src):
    _import_from(src)
    from mpfollow import evaluation, pipeline, sim
    from mpfollow.reid import ReidConfig

    h = _Digests()
    original = pipeline.FollowPipeline.process_frame

    def recorded(self, record):
        r = original(self, record)
        frame = (r.mode, r.target_track_id, r.target_box, r.target_position,
                 r.tracks)
        h.full.update(repr(frame + (r.scores,)).encode())
        h.decisions.update(repr(frame + (sorted(r.scores),)).encode())
        return r

    pipeline.FollowPipeline.process_frame = recorded
    with tempfile.TemporaryDirectory() as tmp:
        for name, scenario in sorted(sim.builtin_scenarios().items()):
            for mode in MODES:
                label = f"{name}_{mode or 'off'}"
                h.update(label.encode())
                evaluation.run_experiment(
                    scenario, None, ReidConfig(mode=mode or "ST"), seed=0,
                    reid_enabled=mode is not None,
                    out_dir=os.path.join(tmp, "runs", label))
        pipeline.FollowPipeline.process_frame = original
        _hash_tree(h, os.path.join(tmp, "runs"))

        for name in TRACKED:
            seq = os.path.join(tmp, f"{name}.jsonl")
            _cli("generate", name, "-o", seq)  # its stdout holds the path
            for flags in TRACK_FLAGS:
                out = os.path.join(tmp, "tracks.jsonl")
                code, _ = _cli("track", seq, "-o", out, *flags)
                h.update(f"track {name} {' '.join(flags)}|{code}|".encode())
                with open(out, "rb") as f:
                    h.update(f.read())

        for name in EXPERIMENTS:
            out_dir = os.path.join(tmp, "experiments", name)
            code, stdout = _cli("experiment", name, "--out-dir", out_dir)
            h.update(f"experiment {name}|{code}|{stdout}".encode())
            _hash_tree(h, out_dir)
    return h.full.hexdigest(), h.decisions.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    full, decisions = digest(sys.argv[1])
    print(full)
    print(decisions)
