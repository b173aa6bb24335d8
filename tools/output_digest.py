"""SHA-256 digests of mpfollow's observable outputs, to compare two source trees.

Usage: python3 tools/output_digest.py SRC_DIR

SRC_DIR holds the ``mpfollow`` package (a checkout's ``src``). At seed 0
the digest covers:
- the repr of ``sim.builtin_scenarios()``, so a built-in that changes
  shape or name changes the digest even where no run output shows it;
- the exact repr of every per-frame result (mode, target id, target box
  and position, track rows, scores), and the ``metrics.txt`` and
  ``trace.jsonl`` of each built-in scenario run in ST, in SLT and with
  re-ID off;
- the exact repr of every per-frame result of a crowd, at seeds 0, 1 and 2
  with re-ID off: twelve people ahead of a robot that drives forward,
  built by the ``crowd_scenario`` of the frame benchmark's
  ``crowd_track`` workload (``framebench/workloads.py``). Every other
  scene here has at most two people, so tracks born in the same frame,
  tracks that share a Kalman gain and groups that split when one track
  misses are exercised here;
- the bytes ``mpfollow track`` writes for room_like and lab_corridor_like
  sequences by default, with ``--no-reid`` and with ``--mode SLT``;
- the same for a one-frame sequence, room_like's header and first frame:
  no track is confirmed before its second hit, so each of these outputs
  has zero rows, which ``track`` writes as one empty line;
- the exit code, stdout and artifacts of ``mpfollow experiment
  --print-config`` for each named experiment in the tree's
  ``cli.EXPERIMENTS`` (st-sweep, slt-vs-st and range-accuracy) and for
  the built-in scenario lab_corridor_like, which ``experiment`` runs by
  name, so what each run is given is digested too (runs are named by
  their labels, not by paths, so these bytes do not depend on the
  temporary directory);
- for a scenario file that sets every key off its default: the repr of
  the ``Scenario`` it loads to, the bytes ``mpfollow generate`` writes
  for it, and the bytes ``mpfollow track --calibration`` writes for that
  sequence with a calibration whose camera is pitched 10 degrees down and
  raised 1.2 m, so a file reader that misreads a key changes the digest;
- for that sequence with each optional key (``descriptor``,
  ``person_id``, ``robot_pose``, ``ground_truth``) left out on some lines
  and ``null`` on others: the repr of the frames it loads to, and the
  bytes ``mpfollow track`` writes for it with and without re-ID, so a
  sequence reader that misreads an optional key changes the digest.
It prints three lines. The first digests all these outputs; two trees
print the same first line when all of them are the same. A repr names
numpy scalar types (``np.float64(0.5)``, not ``0.5``), so a value that
changes only its type changes the first two lines. The second, the
decisions digest, leaves out the values of the per-frame scores (it keeps
which tracks were scored), so two trees whose fits differ only by rounding
print the same second line. No file or stdout the CLI writes holds a score.
The third digests only the bytes the CLI writes (``metrics.txt``,
``trace.jsonl``, ``track`` output, ``experiment`` stdout and artifacts),
which print positions rounded, so two trees whose positions differ only
in their last bits print the same third line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

MODES = ("ST", "SLT", None)  # None: re-ID off
TRACKED = ("room_like", "lab_corridor_like")
TRACK_FLAGS = ((), ("--no-reid",), ("--mode", "SLT"))
SCENARIO_EXPERIMENT = "lab_corridor_like"  # a built-in run by name
CROWD_SEEDS = (0, 1, 2)
FRAMEBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "framebench")
# Every scenario key off its default. Numbers are plain decimals, which
# YAML 1.1 and 1.2 read alike, so the digest compares readers of either.
EVERY_KEY_SCENARIO = """\
name: every_key
duration: 6.0
frame_rate: 12.5
intrinsics: {f_x: 610.0, f_y: 590.0, c_x: 330.0, c_y: 250.0,
             image_width: 640, image_height: 480}
box_pixel_std: 0.75
descriptor_noise_std: 0.02
viewpoint_amplitude: 0.3
similarity: 0.4
descriptor_dim: 48
target_id: 2
pedestrians:
  - {id: 2, cluster: 1, radius: 0.3, height: 1.8, phase_offset: 0.5,
     waypoints: [[0.0, 2.5, 0.4], [6.0, 3.5, -0.2]]}
  - {id: 5, cluster: 3, radius: 0.2, height: 1.6, phase_offset: 1.5,
     waypoints: [[0.0, 4.0, -0.6], [6.0, 2.0, 0.6]]}
robot_path: [[0.0, 0.0, 0.0, 0.0], [6.0, 0.4, 0.1, 0.05]]
occlusions:
  - {ped_id: 2, t_start: 2.0, t_end: 2.5}
drifts:
  - {ped_id: 5, t_start: 3.0, t_end: 5.0, toward_cluster: 4, amount: 0.6,
     ramp: 0.5}
"""
# The forward mount pitched down by 10 degrees, 1.2 m above the robot origin.
PITCHED_CALIBRATION = """\
intrinsics: {f_x: 610.0, f_y: 590.0, c_x: 330.0, c_y: 250.0,
             image_width: 640, image_height: 480}
extrinsics:
  r_robot_cam: [0.0, -1.0, 0.0,
                -0.173648177667, 0.0, -0.984807753012,
                0.984807753012, 0.0, -0.173648177667]
  t_robot_cam: [0.0, 1.181769303615, 0.2083778132]
"""


# A sequence's optional keys, and whether each is a detection's key.
OPTIONAL_KEYS = (("descriptor", True), ("person_id", True),
                 ("robot_pose", False), ("ground_truth", False))


def _without_optional_keys(lines):
    """Sequence lines on which, in turn, one optional key is left out or is
    null; every ninth frame keeps all of them."""
    out = lines[:1]
    for k, line in enumerate(lines[1:]):
        rec, variant = json.loads(line), k % 9
        if variant:
            key, in_detection = OPTIONAL_KEYS[(variant - 1) // 2]
            for owner in rec["detections"][:1] if in_detection else [rec]:
                if variant % 2:
                    del owner[key]
                else:
                    owner[key] = None
        out.append(json.dumps(rec))
    return out


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
    """The full, decisions and CLI-bytes digests: the first two are fed the
    per-frame results (the decisions digest without the score values), and
    all three the bytes the CLI writes."""

    def __init__(self):
        self.full = hashlib.sha256()
        self.decisions = hashlib.sha256()
        self.cli_bytes = hashlib.sha256()

    def update(self, data):
        self.full.update(data)
        self.decisions.update(data)
        self.cli_bytes.update(data)


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
    from mpfollow import cli, evaluation, pipeline, seqio, sim
    from mpfollow.reid import ReidConfig
    sys.path.insert(0, FRAMEBENCH)  # after the tree's mpfollow is imported
    from workloads import crowd_scenario

    h = _Digests()
    builtins = repr(sim.builtin_scenarios()).encode()
    h.full.update(builtins)
    h.decisions.update(builtins)
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
        for seed in CROWD_SEEDS:
            label = f"crowd_{seed}_off".encode()
            h.full.update(label)
            h.decisions.update(label)
            scenario = crowd_scenario(seed)
            pipe = pipeline.FollowPipeline(scenario.intrinsics,
                                           reid_enabled=False, seed=seed)
            for record in sim.generate(scenario, seed):
                pipe.process_frame(record)
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
        seq = os.path.join(tmp, "one_frame.jsonl")
        with open(os.path.join(tmp, "room_like.jsonl")) as f:
            header_and_frame = [next(f), next(f)]
        with open(seq, "w") as f:
            f.writelines(header_and_frame)
        for flags in TRACK_FLAGS:
            out = os.path.join(tmp, "tracks.jsonl")
            code, _ = _cli("track", seq, "-o", out, *flags)
            h.update(f"track one_frame {' '.join(flags)}|{code}|".encode())
            with open(out, "rb") as f:
                h.update(f.read())

        for name in (*cli.EXPERIMENTS, SCENARIO_EXPERIMENT):
            out_dir = os.path.join(tmp, "experiments", name)
            code, stdout = _cli("experiment", name, "--print-config",
                                "--out-dir", out_dir)
            h.update(f"experiment {name}|{code}|{stdout}".encode())
            _hash_tree(h, out_dir)

        scenario = os.path.join(tmp, "every_key.yaml")
        calibration = os.path.join(tmp, "pitched.yaml")
        for path, text in ((scenario, EVERY_KEY_SCENARIO),
                           (calibration, PITCHED_CALIBRATION)):
            with open(path, "w") as f:
                f.write(text)
        loaded = repr(seqio.load_scenario(scenario)).encode()
        h.full.update(loaded)
        h.decisions.update(loaded)
        seq = os.path.join(tmp, "every_key.jsonl")
        code, _ = _cli("generate", scenario, "-o", seq)
        h.update(f"generate every_key|{code}|".encode())
        with open(seq, "rb") as f:
            h.update(f.read())
        out = os.path.join(tmp, "tracks.jsonl")
        code, _ = _cli("track", seq, "--calibration", calibration,
                       "--target-person", "2", "-o", out)
        h.update(f"track every_key pitched|{code}|".encode())
        with open(out, "rb") as f:
            h.update(f.read())

        with open(seq) as f:
            lines = _without_optional_keys(f.read().splitlines())
        seq = os.path.join(tmp, "optional_keys.jsonl")
        with open(seq, "w") as f:
            f.write("\n".join(lines) + "\n")
        loaded = repr(seqio.read_sequence(seq)).encode()
        h.full.update(loaded)
        h.decisions.update(loaded)
        for flags in ((), ("--no-reid",)):
            code, _ = _cli("track", seq, "--calibration", calibration,
                           "--target-person", "2", "-o", out, *flags)
            h.update(f"track optional_keys {' '.join(flags)}|{code}|".encode())
            with open(out, "rb") as f:
                h.update(f.read())
    return h.full.hexdigest(), h.decisions.hexdigest(), h.cli_bytes.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    for line in digest(sys.argv[1]):
        print(line)
