import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import mpfollow
from mpfollow import evaluation, sim
from mpfollow.cli import EXIT_OK, EXIT_RUNTIME, EXIT_SCHEMA, EXIT_USAGE, main
from mpfollow.pipeline import FollowPipeline
from mpfollow.reid import ReidConfig
from mpfollow.seqio import load_scenario
from mpfollow.tracker import TrackerConfig


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    """The CLI in its own process, so a traceback shows in its stderr."""
    src = str(Path(mpfollow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "mpfollow.cli", *argv],
                          env=env, capture_output=True, text=True)


ONE_FRAME_SEQUENCE = (
    '{"format": "mpfollow-seq-1"}\n'
    '{"frame_index": 0, "timestamp": 0.0, "robot_pose": [0, 0, 0], '
    '"detections": [{"box": [600, 200, 680, 500]}]}\n')


class TestGenerate:
    def test_builtin_scenario(self, tmp_path, capsys):
        out = tmp_path / "seq.jsonl"
        code, stdout, _ = run(capsys, "generate", "lab_corridor_like",
                              "--seed", "1", "-o", str(out))
        assert code == EXIT_OK
        assert "450 frames" in stdout
        assert out.exists()

    def test_unknown_scenario_usage_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "generate", "nope",
                              "-o", str(tmp_path / "x.jsonl"))
        assert code == EXIT_USAGE
        assert "error[usage]" in stderr
        assert "built-ins" in stderr

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(capsys, "generate", "room_like", "--seed", "5", "-o", str(a))
        run(capsys, "generate", "room_like", "--seed", "5", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_yaml_input(self, tmp_path, capsys):
        sc = tmp_path / "sc.yaml"
        sc.write_text("name: tiny\nduration: 1.0\npedestrians:\n"
                      "  - id: 0\n    waypoints: [[0.0, 3.0, 0.0]]\n")
        code, stdout, _ = run(capsys, "generate", str(sc),
                              "-o", str(tmp_path / "seq.jsonl"))
        assert code == EXIT_OK
        assert "10 frames" in stdout

    @pytest.mark.parametrize("command", ["generate", "validate-config"])
    @pytest.mark.parametrize("rows, message", [
        ("  - id: 0\n    waypoints: [[0.0, 3.0]]\n",
         "field 'pedestrians[0].waypoints[0]': expected [t, x, y], numbers "
         "within ±1e+50"),
        ("  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n"
         "robot_path: [[0.0, 0.0, 0.0, 0.0], [5.0, 1.0, 0.0]]\n",
         "field 'robot_path[1]': expected [t, x, y, theta], numbers within "
         "±1e+50"),
    ], ids=["pedestrian", "robot"])
    def test_short_waypoint_row_schema_error(self, tmp_path, capsys, command,
                                             rows, message):
        sc = tmp_path / "sc.yaml"
        sc.write_text("name: short\nduration: 1.0\npedestrians:\n" + rows)
        argv = (["generate", str(sc), "-o", str(tmp_path / "seq.jsonl")]
                if command == "generate"
                else ["validate-config", "scenario", str(sc)])
        code, _, stderr = run(capsys, *argv)
        assert code == EXIT_SCHEMA
        assert stderr == f"error[schema]: {sc}: {message}\n"

    @pytest.mark.parametrize("command", ["generate", "validate-config"])
    @pytest.mark.parametrize("sizes, field", [
        ("duration: 1.0\ndescriptor_dim: 1000000000000\n", "descriptor_dim"),
        ("duration: 1.0e+40\nframe_rate: 1.0e+9\n", "duration")],
        ids=["descriptor_dim", "frames"])
    def test_oversize_scenario_schema_error(self, tmp_path, capsys,
                                            monkeypatch, command, sizes, field):
        # Refused at load, before any frame or descriptor basis is built.
        monkeypatch.setattr(sim, "generate",
                            lambda *args: pytest.fail("generate ran"))
        sc = tmp_path / "sc.yaml"
        sc.write_text("name: huge\npedestrians:\n"
                      "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n" + sizes)
        argv = (["generate", str(sc), "-o", str(tmp_path / "seq.jsonl")]
                if command == "generate"
                else ["validate-config", "scenario", str(sc)])
        code, _, stderr = run(capsys, *argv)
        assert code == EXIT_SCHEMA
        assert stderr.startswith(f"error[schema]: {sc}: field '{field}': ")
        assert not (tmp_path / "seq.jsonl").exists()

    @pytest.mark.parametrize("sizes, valid", [
        ("duration: 1.0\ndescriptor_dim: 65536\n", True),
        ("duration: 1.0\ndescriptor_dim: 65537\n", False),
        ("duration: 100000.0\n", True),  # 1,000,000 frames at 10 Hz
        ("duration: 100000.1\n", False),
        ("duration: 0.06\n", True),  # one frame
        ("duration: 0.04\n", False)])  # none
    def test_scenario_size_limits(self, tmp_path, capsys, sizes, valid):
        sc = tmp_path / "sc.yaml"
        sc.write_text("name: edge\npedestrians:\n"
                      "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n" + sizes)
        code, _, _ = run(capsys, "validate-config", "scenario", str(sc))
        assert code == (EXIT_OK if valid else EXIT_SCHEMA)

    def test_bad_scenario_yaml_schema_error(self, tmp_path, capsys):
        sc = tmp_path / "sc.yaml"
        sc.write_text("name: broken\nduration: -2.0\npedestrians:\n"
                      "  - id: 0\n    waypoints: [[0.0, 3.0, 0.0]]\n")
        code, _, stderr = run(capsys, "generate", str(sc),
                              "-o", str(tmp_path / "seq.jsonl"))
        assert code == EXIT_SCHEMA
        assert "error[schema]" in stderr


class TestTrack:
    @pytest.fixture
    def sequence(self, tmp_path, capsys):
        out = tmp_path / "seq.jsonl"
        run(capsys, "generate", "lab_corridor_like", "-o", str(out))
        return out

    def test_track_writes_rows(self, tmp_path, capsys, sequence):
        out = tmp_path / "tracks.jsonl"
        code, stdout, _ = run(capsys, "track", str(sequence), "-o", str(out))
        assert code == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows
        assert {"frame_index", "track_id", "x", "y", "box"} <= set(rows[0])
        assert any(r.get("is_target") for r in rows)

    def test_calibration_mount_moves_tracks(self, tmp_path, capsys, sequence):
        # A camera 5 m behind the robot origin (camera z is robot x) sees
        # each box 5 m farther from the robot: every row's x is 5 m less,
        # to the 1e-6 m the rows are written with, and nothing else moves.
        calib = tmp_path / "calib.yaml"
        calib.write_text(
            "intrinsics: {f_x: 500.0, f_y: 500.0, c_x: 640.0, c_y: 360.0,\n"
            "             image_width: 1280, image_height: 720}\n"
            "extrinsics: {t_robot_cam: [0, 0, 5]}\n")
        rows = []
        for extra in ([], ["--calibration", str(calib)]):
            out = tmp_path / "tracks.jsonl"
            code, _, _ = run(capsys, "track", str(sequence), "-o", str(out),
                             *extra)
            assert code == EXIT_OK
            rows.append([json.loads(l) for l in out.read_text().splitlines()])
        plain, mounted = rows
        assert len(plain) == len(mounted) and any(r["is_target"] for r in plain)
        for a, b in zip(plain, mounted):
            assert b.pop("x") == pytest.approx(a.pop("x") - 5.0, rel=0, abs=1e-6)
            assert a == b

    def test_no_reid_mode(self, tmp_path, capsys, sequence):
        out = tmp_path / "tracks.jsonl"
        code, _, _ = run(capsys, "track", str(sequence), "--no-reid",
                         "-o", str(out))
        assert code == EXIT_OK
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(not r.get("is_target") for r in rows)

    def test_missing_descriptors_with_reid_fails(self, tmp_path, capsys):
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        code, _, stderr = run(capsys, "track", str(seq),
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_USAGE
        assert "no descriptors" in stderr
        code, _, _ = run(capsys, "track", str(seq), "--no-reid",
                         "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK

    @pytest.mark.parametrize("person", [7, 0])
    def test_reid_refuses_a_target_it_can_never_designate(
            self, tmp_path, capsys, person):
        # Person 0 is seen only without a descriptor, person 1 with one and
        # person 7 never: designation needs a descriptor of the target.
        seq, out = tmp_path / "seq.jsonl", tmp_path / "t.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE.replace(
            '{"box": [600, 200, 680, 500]}',
            '{"box": [600, 200, 680, 500], "person_id": 0}, '
            '{"box": [300, 200, 380, 500], "person_id": 1, '
            '"descriptor": [1.0, 0.0]}'))
        argv = ["track", str(seq), "-o", str(out)]
        code, _, stderr = run(capsys, *argv, "--target-person", str(person))
        assert (code, stderr) == (EXIT_USAGE, (
            "error[config]: re-ID enabled but the sequence carries no "
            f"descriptors of person {person} (rerun with --no-reid or "
            "--target-person)\n"))
        assert not out.exists()
        code, _, _ = run(capsys, *argv, "--no-reid")  # which reads no person
        assert code == EXIT_OK and out.exists()
        out.unlink()
        code, _, _ = run(capsys, *argv, "--target-person", "1")
        assert code == EXIT_OK and out.exists()

    def test_reid_accepts_a_sequence_without_detections(self, tmp_path,
                                                        capsys):
        seq, out = tmp_path / "seq.jsonl", tmp_path / "t.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE.replace(
            '{"box": [600, 200, 680, 500]}', ""))
        code, _, _ = run(capsys, "track", str(seq), "-o", str(out))
        assert code == EXIT_OK and out.read_bytes() == b"\n"

    def test_zero_descriptor_schema_error(self, tmp_path):
        # A malformed descriptor is bad input, refused at load whether or
        # not re-ID runs: exit 2 naming file, line and field, no traceback.
        frames = []
        for i in range(3):
            desc = [0.0] * 512 if i == 2 else [1.0] + [0.0] * 511
            frames.append(json.dumps({
                "frame_index": i, "timestamp": 0.1 * i,
                "robot_pose": [0, 0, 0], "detections": [
                    {"box": [600, 200, 680, 500], "descriptor": desc,
                     "person_id": 0}]}))
        seq = tmp_path / "seq.jsonl"
        seq.write_text('{"format": "mpfollow-seq-1"}\n'
                       + "\n".join(frames) + "\n")
        argv = ["track", str(seq), "-o", str(tmp_path / "t.jsonl")]
        for flags in ([], ["--no-reid"]):
            proc = run_process(*argv, *flags)
            assert proc.returncode == EXIT_SCHEMA
            assert proc.stderr.startswith(
                f"error[schema]: {seq}:4: field 'detections[0].descriptor'")
            assert "Traceback" not in proc.stderr

    def test_descriptor_dimension_from_input(self, tmp_path, capsys):
        # The descriptors decide their length; only a change of length
        # within a sequence is malformed input.
        sc = tmp_path / "short.yaml"
        sc.write_text(
            "name: short\nduration: 10.0\ndescriptor_dim: 8\n"
            "box_pixel_std: 0.5\npedestrians:\n"
            "  - {id: 0, cluster: 0, waypoints: [[0.0, 3.0, 0.6]]}\n"
            "  - {id: 1, cluster: 1, phase_offset: 2.0,\n"
            "     waypoints: [[0.0, 3.0, -0.8]]}\n")
        seq, out = tmp_path / "seq.jsonl", tmp_path / "t.jsonl"
        assert run(capsys, "generate", str(sc), "-o", str(seq))[0] == EXIT_OK
        assert run(capsys, "track", str(seq), "-o", str(out))[0] == EXIT_OK
        assert any(json.loads(l).get("is_target")
                   for l in out.read_text().splitlines())
        reid_result, _, _ = evaluation.run_experiment(load_scenario(str(sc)))
        assert reid_result.ap > 0.9

        lines = seq.read_text().splitlines()
        rec = json.loads(lines[31])
        rec["detections"][0]["descriptor"] = [1.0, 0.0, 0.0, 0.0]
        lines[31] = json.dumps(rec)
        seq.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "track", str(seq), "-o", str(out))
        assert code == EXIT_SCHEMA
        assert stderr.startswith(
            f"error[schema]: {seq}:32: field 'detections[0].descriptor'")

    def test_stuck_timestamps_schema_error(self, tmp_path, capsys, sequence):
        # Timestamps that stop increasing are refused at load with exit 2,
        # not tracked with a made-up frame interval.
        lines = sequence.read_text().splitlines()
        for n in range(21, len(lines)):
            rec = json.loads(lines[n])
            rec["timestamp"] = 1.0
            lines[n] = json.dumps(rec)
        seq = tmp_path / "stuck.jsonl"
        seq.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "track", str(seq),
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_SCHEMA
        assert f"{seq}:22: field 'timestamp':" in stderr
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("in_detection, key, new_key", [
        (False, "robot_pose", "robot_poze"),
        (True, "descriptor", "descriptors"),
        (True, None, "colour")], ids=["frame", "detection", "added"])
    def test_unknown_key_schema_error(self, tmp_path, capsys, in_detection,
                                      key, new_key):
        # A key that its table lacks is refused at every level, as in YAML
        # files, not dropped: a dropped robot_pose would keep the previous
        # frame's pose, a dropped descriptor would leave its box unscored.
        seq = tmp_path / "room.jsonl"
        assert run(capsys, "generate", "room_like", "-o", str(seq))[0] == EXIT_OK
        lines = seq.read_text().splitlines()
        rec = json.loads(lines[6])
        owner = rec["detections"][0] if in_detection else rec
        owner[new_key] = owner.pop(key) if key else "red"
        lines[6] = json.dumps(rec)
        seq.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "track", str(seq),
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_SCHEMA
        where = f"detections[0].{new_key}" if in_detection else new_key
        assert stderr.startswith(f"error[schema]: {seq}:7: field '{where}': "
                                 "unknown key (expected one of ")
        assert not (tmp_path / "t.jsonl").exists()

    def test_header_extra_key_schema_error(self, tmp_path, capsys, sequence):
        # The header is read by its table like every other mapping, so a
        # key it lacks is refused rather than skipped with the line.
        lines = sequence.read_text().splitlines()
        lines[0] = '{"format": "mpfollow-seq-1", "colour": 1}'
        seq = tmp_path / "colour.jsonl"
        seq.write_text("\n".join(lines) + "\n")
        code, _, stderr = run(capsys, "track", str(seq),
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_SCHEMA
        assert stderr.startswith(f"error[schema]: {seq}:1: field 'colour': "
                                 "unknown key (expected one of format)")
        assert not (tmp_path / "t.jsonl").exists()

    def test_non_utf8_sequence_schema_error(self, tmp_path):
        seq = tmp_path / "seq.jsonl"
        seq.write_bytes(b"\xff\n")
        proc = run_process("track", str(seq), "-o", str(tmp_path / "t.jsonl"))
        assert proc.returncode == EXIT_SCHEMA
        assert proc.stderr.startswith(f"error[schema]: {seq}:1: ")
        assert "Traceback" not in proc.stderr

    def test_print_config(self, tmp_path, capsys, sequence):
        code, stdout, _ = run(capsys, "track", str(sequence),
                              "--capacity", "32", "--mode", "SLT",
                              "--print-config",
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK
        cfg = json.loads(stdout[:stdout.index("wrote")])
        assert sorted(cfg) == ["reid", "run", "seed", "tracker"]
        assert (cfg["run"], cfg["seed"]) == (str(tmp_path / "t.jsonl"), 0)
        assert cfg["reid"]["capacity"] == 32
        assert cfg["reid"]["mode"] == "SLT"
        assert sorted(cfg["tracker"]) == ["delta_iou", "gate_distance",
                                          "measurement_noise_std", "r_body"]
        assert sorted(cfg["reid"]) == ["capacity", "delta_id", "delta_switch",
                                       "lam", "mode", "n_id"]

    def test_print_config_without_reid(self, tmp_path, capsys, sequence):
        # A run without re-ID is given no re-ID config: "reid" is null, and
        # nothing else says whether re-ID is on.
        code, stdout, _ = run(capsys, "track", str(sequence), "--no-reid",
                              "--r-body", "0.3", "--print-config",
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK
        cfg = json.loads(stdout[:stdout.index("wrote")])
        assert sorted(cfg) == ["reid", "run", "seed", "tracker"]
        assert cfg["reid"] is None
        assert cfg["tracker"]["r_body"] == 0.3

    def test_zero_rows_write_one_empty_line(self, tmp_path, capsys):
        # No track is confirmed before its second hit, so one frame gives
        # no rows.
        seq, out = tmp_path / "seq.jsonl", tmp_path / "t.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        code, stdout, _ = run(capsys, "track", str(seq), "--no-reid",
                              "-o", str(out))
        assert (code, stdout) == (EXIT_OK, f"wrote 0 track rows to {out}\n")
        assert out.read_bytes() == b"\n"

    def test_output_defaults_to_tracks_jsonl(self, tmp_path, capsys,
                                             monkeypatch):
        # -o is the one name for the output file: no --out-dir, no variable.
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MPFOLLOW_OUT_DIR", str(tmp_path / "env"))
        code, stdout, _ = run(capsys, "track", str(seq), "--no-reid")
        assert (code, stdout) == (EXIT_OK, "wrote 0 track rows to "
                                  "tracks.jsonl\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "seq.jsonl", "tracks.jsonl"]

    def test_failed_run_leaves_the_old_output(self, tmp_path, capsys,
                                              monkeypatch, sequence):
        # Rows are written as frames are tracked, into a temporary file
        # that only a finished run renames to -o.
        out = tmp_path / "t.jsonl"
        out.write_bytes(b"old\n")
        calls = []

        def process_frame(self, record):
            calls.append(record.frame_index)
            if len(calls) == 100:
                raise RuntimeError("frame failed")
            return original(self, record)

        original = FollowPipeline.process_frame
        monkeypatch.setattr(FollowPipeline, "process_frame", process_frame)
        with pytest.raises(RuntimeError, match="frame failed"):
            run(capsys, "track", str(sequence), "-o", str(out))
        assert out.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "seq.jsonl", "t.jsonl"]

    def test_schema_error_on_bad_sequence(self, tmp_path, capsys):
        seq = tmp_path / "bad.jsonl"
        seq.write_text("{not json\n")
        code, _, stderr = run(capsys, "track", str(seq),
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_SCHEMA
        assert "error[schema]" in stderr


class TestExperiment:
    def test_named_scenario(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "experiment", "lab_corridor_like",
                              "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert "precision@50px" in stdout
        assert (tmp_path / "lab_corridor_like" / "metrics.txt").exists()
        assert (tmp_path / "lab_corridor_like" / "trace.jsonl").exists()

    @pytest.mark.parametrize("name, run_dir, precision_keys", [
        ("lab_corridor_like", "lab_corridor_like",
         ["precision_threshold_px", "precision@50px"]),
        ("range-accuracy", "range_accuracy", [])])
    def test_metrics_name_the_precision_once_and_only_with_reid(
            self, tmp_path, capsys, name, run_dir, precision_keys):
        code, _, _ = run(capsys, "experiment", name, "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        keys = [line.split(" ")[0] for line in
                (tmp_path / run_dir / "metrics.txt").read_text().splitlines()]
        assert keys[0] == "format"
        assert [k for k in keys
                if "precision" in k or k == "ap"] == precision_keys

    def test_unknown_experiment(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "experiment", "bogus",
                              "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert "error[usage]" in stderr

    def test_out_dir_defaults_to_the_working_directory(self, tmp_path, capsys,
                                                       monkeypatch):
        # --out-dir is the one name for where artifacts go: no variable.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MPFOLLOW_OUT_DIR", str(tmp_path / "env"))
        code, _, _ = run(capsys, "experiment", "lab_corridor_like")
        assert code == EXIT_OK
        assert sorted(p.name for p in (tmp_path / "lab_corridor_like")
                      .iterdir()) == ["metrics.txt", "trace.jsonl"]
        assert not (tmp_path / "env").exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        run(capsys, "experiment", "lab_corridor_like", "--seed", "2",
            "--out-dir", str(tmp_path / "a"))
        run(capsys, "experiment", "lab_corridor_like", "--seed", "2",
            "--out-dir", str(tmp_path / "b"))
        for name in ("metrics.txt", "trace.jsonl"):
            assert (tmp_path / "a" / "lab_corridor_like" / name).read_bytes() \
                == (tmp_path / "b" / "lab_corridor_like" / name).read_bytes()


class TestConfigFlags:
    @pytest.mark.parametrize("command", ["track", "experiment"])
    @pytest.mark.parametrize("value", ["2", "0"])
    def test_delta_iou_out_of_range_usage_error(self, tmp_path, command,
                                                value):
        # At 0 no IoU is below delta_iou, so every box was dropped, even a
        # lone one, and nothing was tracked.
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        source = str(seq) if command == "track" else "lab_corridor_like"
        proc = run_process(command, source, "--delta-iou", value,
                           "-o" if command == "track" else "--out-dir",
                           str(tmp_path / "out"))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith(
            "error[config]: delta_iou must be in (0, 1]\n")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["track", "experiment"])
    @pytest.mark.parametrize("flag, value", [
        ("--capacity", "-1"), ("--capacity", "0"), ("--n-id", "0"),
        ("--n-id", "-3"), ("--lam", "nan"), ("--lam", "inf"),
        ("--delta-switch", "nan"), ("--delta-id", "2"), ("--r-body", "0"),
        ("--r-body", "-0.25"), ("--r-body", "nan"), ("--r-body", "1e300"),
        ("--capacity", "4097"), ("--capacity", "1000000"), ("--lam", "0"),
        ("--lam", "1e-16"), ("--lam", "1e-300")])
    def test_bad_config_value_usage_error(self, tmp_path, command, flag,
                                          value):
        # Each config value is refused when the config is built, before
        # any frame runs or output is written.
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        argv = ([command, str(seq), "--no-reid", "-o"] if command == "track"
                else [command, "lab_corridor_like", "--out-dir"])
        proc = run_process(*argv, str(tmp_path / "out"), f"{flag}={value}")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error[config]: ")
        assert flag[2:].replace("-", "_") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["st-sweep", "slt-vs-st",
                                      "range-accuracy"])
    def test_bad_reid_flag_refused_by_every_experiment(self, tmp_path, capsys,
                                                       name):
        # A malformed flag is refused, also by range-accuracy, which runs
        # with re-ID off.
        code, _, stderr = run(capsys, "experiment", name, "--capacity=0",
                              "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert stderr.startswith("error[config]: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name, flags, runs", [
        ("st-sweep", ["--lam", "5", "--delta-id", "0.9", "--r-body", "0.3"],
         [("room_like", {"r_body": 0.3},
           {"lam": 5.0, "delta_id": 0.9, "mode": "ST", "capacity": c})
          for c in (16, 32, 64, 128)]),
        ("slt-vs-st", ["--lam", "5", "--delta-id", "0.9"],
         [("corridor1_like", {}, {"lam": 5.0, "delta_id": 0.9, "mode": m,
                                  "capacity": 64}) for m in ("ST", "SLT")]),
        ("range-accuracy", ["--r-body", "0.5", "--delta-iou", "0.1"],
         [("range_sweep", {"r_body": 0.5, "delta_iou": 0.1,
                           "measurement_noise_std": 0.3, "gate_distance": 2.0},
           None)]),
        ("room_like", ["--mode", "SLT", "--capacity", "8", "--delta-iou", "0.2"],
         [("room_like", {"delta_iou": 0.2}, {"mode": "SLT", "capacity": 8})])])
    def test_experiment_runs_with_flag_configs(self, tmp_path, capsys,
                                               monkeypatch, name, flags, runs):
        # Each run gets the configs the flags give; an experiment sets only
        # the fields it sweeps, and a run without re-ID gets no re-ID config.
        seen = []

        def fake_run(scenario, tracker_cfg, reid_cfg, seed, reid_enabled=True,
                     out_dir=None):
            seen.append((scenario.name, tracker_cfg, reid_cfg, reid_enabled))
            return SimpleNamespace(ap=0.5), SimpleNamespace(bins=[]), []

        monkeypatch.setattr(evaluation, "run_experiment", fake_run)
        code, _, _ = run(capsys, "experiment", name, *flags,
                         "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert seen == [(scenario, TrackerConfig(**tracker),
                         None if reid is None else ReidConfig(**reid),
                         reid is not None)
                        for scenario, tracker, reid in runs]

    @pytest.mark.parametrize("name, labels, flags", [
        ("st-sweep", [f"GRR_ST_{c}" for c in (16, 32, 64, 128)],
         ["--lam", "5"]),
        ("slt-vs-st", ["GRR_ST_64", "GRR_SLT_64"], ["--lam", "5"]),
        ("range-accuracy", ["range-accuracy"], []),
        ("room_like", ["room_like"], ["--lam", "5"])])
    def test_print_config_shows_what_each_run_is_given(self, tmp_path, capsys,
                                                       monkeypatch, name,
                                                       labels, flags):
        # One object per run, all before the first run starts, each holding
        # the seed and configs that run is given: a null re-ID config for a
        # run without re-ID.
        given = []

        def fake_run(scenario, tracker_cfg, reid_cfg, seed, reid_enabled=True,
                     out_dir=None):
            print("run started")
            assert reid_enabled == (reid_cfg is not None)
            given.append({"seed": seed, "tracker": vars(tracker_cfg),
                          "reid": reid_cfg and vars(reid_cfg)})
            return SimpleNamespace(ap=0.5), SimpleNamespace(bins=[]), []

        monkeypatch.setattr(evaluation, "run_experiment", fake_run)
        code, stdout, _ = run(capsys, "experiment", name, *flags,
                              "--r-body", "0.3", "--seed", "2",
                              "--print-config", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        printed, end = [], 0
        while stdout[end] == "{":
            cfg, end = json.JSONDecoder().raw_decode(stdout, end)
            printed.append(cfg)
            end += 1  # its newline
        assert [cfg.pop("run") for cfg in printed] == labels
        assert printed == given
        assert "{" not in stdout[end:]
        assert stdout[end:].count("run started") == len(labels)

    def test_range_accuracy_output_follows_flags(self, tmp_path, capsys):
        outputs = []
        for flags in ([], ["--r-body", "0.5", "--delta-iou", "0.1"]):
            out_dir = tmp_path / str(len(outputs))
            code, stdout, _ = run(capsys, "experiment", "range-accuracy",
                                  *flags, "--out-dir", str(out_dir))
            assert code == EXIT_OK
            outputs.append((stdout, (out_dir / "range_accuracy" /
                                     "metrics.txt").read_bytes()))
        assert outputs[0][0] != outputs[1][0]
        assert outputs[0][1] != outputs[1][1]

    @pytest.mark.parametrize("name", ["st-sweep", "slt-vs-st"])
    @pytest.mark.parametrize("flags, refused", [
        (["--mode=SLT"], "--mode"), (["--capacity=32"], "--capacity"),
        (["--capacity=32", "--lam=5", "--mode=SLT"], "--mode or --capacity")])
    def test_swept_flag_refused(self, tmp_path, capsys, name, flags, refused):
        code, _, stderr = run(capsys, "experiment", name, *flags,
                              "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert stderr == f"error[config]: experiment {name} takes no {refused}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["track --no-reid",
                                         "experiment range-accuracy"])
    @pytest.mark.parametrize("flags, refused", [
        *(([flag, value], flag) for flag, value in (
            ("--delta-switch", "0.5"), ("--delta-id", "0.5"), ("--n-id", "3"),
            ("--lam", "5"), ("--capacity", "8"), ("--mode", "SLT"))),
        (["--mode", "SLT", "--r-body", "0.3", "--n-id", "3"],
         "--n-id or --mode")])
    def test_reid_flag_refused_without_reid(self, tmp_path, capsys, command,
                                            flags, refused):
        # A run without re-ID reads no re-ID flag, so each one given is
        # refused before -o is checked, --out-dir is made or the sequence
        # is read (here it does not exist).
        argv = (["track", str(tmp_path / "missing.jsonl"), "--no-reid", "-o"]
                if command.startswith("track") else
                ["experiment", "range-accuracy", "--out-dir"])
        code, stdout, stderr = run(capsys, *argv, str(tmp_path / "out"),
                                   *flags)
        assert code == EXIT_USAGE
        assert stderr == f"error[config]: {command} takes no {refused}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, refused", [
        (["--seed", "9"], "--seed"),
        (["--target-person", "7"], "--target-person"),
        (["--seed", "0", "--target-person", "0"], "--seed or --target-person"),
        (["--target-person", "7", "--n-id", "3", "--seed", "9"],
         "--n-id or --seed or --target-person")])
    def test_reid_only_flag_refused_by_track_without_reid(
            self, tmp_path, capsys, flags, refused):
        # Only re-ID reads the seed (the sample set's reservoir) and the
        # target person (designation), so track --no-reid refuses both,
        # given even at their default, in the re-ID flags' message.
        code, stdout, stderr = run(
            capsys, "track", str(tmp_path / "missing.jsonl"), "--no-reid",
            "-o", str(tmp_path / "out"), *flags)
        assert code == EXIT_USAGE
        assert stderr == f"error[config]: track --no-reid takes no {refused}\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []


class TestValidateConfig:
    def test_valid_calibration(self, tmp_path, capsys):
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n")
        code, stdout, _ = run(capsys, "validate-config", "calibration", str(p))
        assert code == EXIT_OK
        assert "valid calibration" in stdout

    def test_invalid_scenario(self, tmp_path, capsys):
        p = tmp_path / "sc.yaml"
        p.write_text("name: x\nduration: 5.0\npedestrians: []\n")
        code, _, stderr = run(capsys, "validate-config", "scenario", str(p))
        assert code == EXIT_SCHEMA
        assert "pedestrians" in stderr
        p = tmp_path / "nofx.yaml"
        p.write_text("name: x\nduration: 5.0\npedestrians:\n"
                     "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n"
                     "intrinsics: {f_y: 500.0, c_x: 320.0, c_y: 240.0,\n"
                     "             image_width: 640, image_height: 480}\n")
        code, _, stderr = run(capsys, "validate-config", "scenario", str(p))
        assert code == EXIT_SCHEMA
        assert stderr == f"error[schema]: {p}: field 'intrinsics.f_x': missing\n"

    @pytest.mark.parametrize("kind", ["scenario", "calibration"])
    @pytest.mark.parametrize("text", [
        b"name: \xff\n", b"duration: " + b"[" * 3000 + b"]" * 3000 + b"\n"],
        ids=["undecodable", "too-deep"])
    def test_unreadable_yaml_schema_error(self, tmp_path, capsys, kind, text):
        p = tmp_path / "config.yaml"
        p.write_bytes(text)
        code, _, stderr = run(capsys, "validate-config", kind, str(p))
        assert code == EXIT_SCHEMA
        assert stderr.startswith(f"error[schema]: {p}: invalid YAML: ")

    @pytest.mark.parametrize("command", ["generate", "validate-config"])
    @pytest.mark.parametrize("extra, field", [
        ("duration: .inf\n", "duration"), ("duration: .nan\n", "duration"),
        ("duration: 1.0\nframe_rate: .nan\n", "frame_rate"),
        ("duration: 1.0\nrobot_path: [[0.0, .nan, 0.0, 0.0]]\n",
         "robot_path[0]"),
        ("duration: 1.0\nrobot_path: [[0.0, 0.0, 0.0, .inf]]\n",
         "robot_path[0]"),
        ("duration: 1.0\npedestrians:\n"
         "  - {id: 0, waypoints: [[0.0, .inf, 0.0]]}\n",
         "pedestrians[0].waypoints[0]"),
        ("duration: 1.0\npedestrians:\n"
         "  - {id: 0, radius: .nan, waypoints: [[0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].radius"),
        ("duration: 1.0\ndescriptor_noise_std: .nan\n", "descriptor_noise_std"),
        ("duration: 1.0\ndescriptor_noise_std: -1.0\n", "descriptor_noise_std"),
        ("duration: 1.0\nviewpoint_amplitude: .inf\n", "viewpoint_amplitude"),
        ("duration: 1.0\ndescriptor_dim: 4\npedestrians:\n"
         "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n"
         "  - {id: 1, cluster: 1, waypoints: [[0.0, 3.0, 1.0]]}\n",
         "descriptor_dim"),
        # Each value is read by the kind its key's table gives: no bool or
        # text as a number, no bool or fraction as an integer.
        ("duration: true\n", "duration"),
        ("duration: 1.0\nframe_rate: '10'\n", "frame_rate"),
        ("duration: 1.0\npedestrians:\n"
         "  - {id: 0, radius: true, waypoints: [[0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].radius"),
        ("duration: 1.0\ndescriptor_dim: 9.9\n", "descriptor_dim"),
        ("duration: 1.0\npedestrians:\n"
         "  - {id: 0, cluster: yes, waypoints: [[0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].cluster"),
        ("duration: 1.0\npedestrians:\n"
         "  - {id: 1.9, waypoints: [[0.0, 3.0, 0.0]]}\n", "pedestrians[0].id"),
        ("duration: 1.0\npedestrians:\n  - {id: 0, waypoints: 5}\n",
         "pedestrians[0].waypoints"),
        ("duration: 1.0\nname: 7\n", "name"),
        # A key no table holds is refused, not dropped; a required one must
        # be there.
        ("duration: 1.0\nbox_pixel_stdev: 3.0\n", "box_pixel_stdev"),
        ("duration: 1.0\ncolour: red\n", "colour"),
        ("duration: 1.0\npedestrians:\n"
         "  - {id: 0, colour: red, waypoints: [[0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].colour"),
        ("duration: 1.0\nocclusions: [{ped_id: 0, t_start: 0.0, t_stop: 1.0}]\n",
         "occlusions[0].t_stop"),
        ("duration: 1.0\ndrifts: [{ped_id: 0, t_start: 0.0, t_end: 1.0,\n"
         "  toward_cluster: 1, amount: 0.5, rmap: 1.0}]\n", "drifts[0].rmap"),
        ("duration: 1.0\nocclusions: [{ped_id: 0, t_start: 0.0}]\n",
         "occlusions[0].t_end"),
        ("frame_rate: 10.0\n", "duration"),
        ("duration: 1.0\npedestrians:\n  - {waypoints: [[0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].id"),
        ("duration: 1.0\npedestrians: {id: 0}\n", "pedestrians"),
        ("duration: 1.0\n# no pedestrians\n", "pedestrians"),
        # A pedestrian is named by its place in the list, not by its id.
        ("duration: 1.0\ntarget_id: 7\npedestrians:\n"
         "  - {id: 7, radius: -1.0, waypoints: [[0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].radius"),
        ("duration: 1.0\ntarget_id: 7\npedestrians:\n"
         "  - {id: 7, waypoints: [[1.0, 3.0, 0.0], [0.0, 3.0, 0.0]]}\n",
         "pedestrians[0].waypoints"),
        # The robot's path keeps the pedestrians' rule: times do not decrease.
        ("duration: 1.0\nrobot_path: [[0.0, 0.0, 0.0, 0.0],\n"
         "  [10.0, 1.0, 0.0, 0.0], [5.0, 2.0, 0.0, 0.0]]\n", "robot_path"),
        ("duration: 1.0\nocclusions: [{ped_id: 3, t_start: 0.0, t_end: 1.0}]\n",
         "occlusions[0].ped_id"),
        # A drift ends after it starts, blends by 0 to 1 and ramps up over
        # a time >= 0.
        ("duration: 1.0\ndrifts: [{ped_id: 0, t_start: 1.0, t_end: 0.5,\n"
         "  toward_cluster: 1, amount: 0.5}]\n", "drifts[0].t_end"),
        ("duration: 1.0\ndrifts: [{ped_id: 0, t_start: 0.0, t_end: 1.0,\n"
         "  toward_cluster: 1, amount: 25}]\n", "drifts[0].amount"),
        ("duration: 1.0\ndrifts: [{ped_id: 0, t_start: 0.0, t_end: 1.0,\n"
         "  toward_cluster: 1, amount: 0.5, ramp: -1}]\n", "drifts[0].ramp")])
    def test_bad_scenario_value_schema_error(self, tmp_path, capsys,
                                             command, extra, field):
        # Refused at load by validate-config and generate alike, not by a
        # traceback from inside generate.
        sc = tmp_path / "sc.yaml"
        peds = ("" if "pedestrians" in extra else
                "pedestrians:\n  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n")
        sc.write_text("name: odd\n" + peds + extra)
        argv = (["generate", str(sc), "-o", str(tmp_path / "seq.jsonl")]
                if command == "generate"
                else ["validate-config", "scenario", str(sc)])
        code, _, stderr = run(capsys, *argv)
        assert code == EXIT_SCHEMA
        assert stderr.startswith(f"error[schema]: {sc}: field '{field}': ")
        assert stderr.count("\n") == 1
        assert not (tmp_path / "seq.jsonl").exists()

    @pytest.mark.parametrize("command", ["track", "validate-config"])
    @pytest.mark.parametrize("f_x, extra, where", [
        (".inf", "", "field 'intrinsics.f_x'"),
        (".nan", "", "field 'intrinsics.f_x'"),
        ("-.inf", "", "field 'intrinsics.f_x'"),
        ("x", "", "field 'intrinsics.f_x'"),
        ("true", "", "field 'intrinsics.f_x'"),
        ("'500'", "", "field 'intrinsics.f_x'"),
        ("-500.0", "", "field 'intrinsics': focal lengths"),
        # The robot pose is each frame's robot_pose, and nothing else.
        ("500.0", "extrinsics: {r_world_robot: identity}\n",
         "field 'extrinsics.r_world_robot'"),
        ("500.0", "extrinsics: {t_world_robot: [1, 2, 0]}\n",
         "field 'extrinsics.t_world_robot'"),
        ("500.0", "extrinsics: {t_robot_camera: [1, 2, 3]}\n",
         "field 'extrinsics.t_robot_camera'"),
        # Mounts that see the ground plane edge-on: no position to track.
        ("500.0", "extrinsics: {r_robot_cam: identity}\n",
         "field 'extrinsics.r_robot_cam'"),
        ("500.0", "extrinsics: {r_robot_cam: [1, 0, 0, 0, 1, 0, 0, 0, 1]}\n",
         "field 'extrinsics.r_robot_cam'"),
        ("500.0", "extrinsics: {r_robot_cam: [0, -1, 0, -1, 0, 0, 0, 0, -1]}\n",
         "field 'extrinsics.r_robot_cam'"),
        ("500.0", "extrinsics: 5\n", "field 'extrinsics'"),
        ("500.0", "extrinsics: {t_robot_cam: [a, 0, 0]}\n",
         "field 'extrinsics.t_robot_cam'"),
        ("500.0", "extrinsics: {r_robot_cam: {rpy: [0, 1]}}\n",
         "field 'extrinsics.r_robot_cam.rpy'"),
        # t_robot_cam indented under r_robot_cam: not a mount at the origin.
        ("500.0", "extrinsics:\n  r_robot_cam:\n    rpy: [0, 0, 0]\n"
         "    t_robot_cam: [0, 0, 1]\n",
         "field 'extrinsics.r_robot_cam.t_robot_cam'"),
        ("500.0", "extrinsics: {t_robot_cam: [.nan, 0, 0]}\n",
         "field 'extrinsics.t_robot_cam'"),
        ("500.0", "extrinsics: {t_world_robot: [0, .inf, 0]}\n",
         "field 'extrinsics.t_world_robot'"),
        ("500.0", "extrinsics: {t_robot_cam: [.nan, 0, 0],\n"
         "             t_world_robot: [0, .inf, 0]}\n",
         "field 'extrinsics.t_world_robot'"),
        ("500.0", "extrinsics: {t_robot_cam: [0, 0]}\n",
         "field 'extrinsics.t_robot_cam'"),
        (None, "intrinsics:\n", "field 'intrinsics'")])
    def test_bad_calibration_value_schema_error(self, tmp_path, capsys,
                                                command, f_x, extra, where):
        calib = tmp_path / "calib.yaml"
        calib.write_text(extra if f_x is None else (
            f"intrinsics:\n  f_x: {f_x}\n  f_y: 500.0\n  c_x: 640.0\n"
            "  c_y: 360.0\n  image_width: 1280\n  image_height: 720\n" + extra))
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        argv = (["track", str(seq), "--no-reid", "--calibration", str(calib),
                 "-o", str(tmp_path / "t.jsonl")] if command == "track"
                else ["validate-config", "calibration", str(calib)])
        code, _, stderr = run(capsys, *argv)
        assert code == EXIT_SCHEMA
        assert stderr.startswith(f"error[schema]: {calib}: {where}")
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("command", ["track", "calibration", "scenario"])
    @pytest.mark.parametrize("sizes, field", [
        ("image_width: 1280.9, image_height: 720", "image_width"),
        ("image_width: 1280, image_height: 720.0", "image_height"),
        ("image_width: '1280', image_height: 720", "image_width"),
        ("image_width: 1280, image_height: true", "image_height")])
    def test_image_size_must_be_integer(self, tmp_path, capsys, command,
                                        sizes, field):
        path = tmp_path / "config.yaml"
        intrinsics = ("intrinsics: {f_x: 500.0, f_y: 500.0, c_x: 640.0, "
                      f"c_y: 360.0, {sizes}}}\n")
        path.write_text(intrinsics if command != "scenario" else (
            "name: x\nduration: 5.0\npedestrians:\n"
            "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n" + intrinsics))
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        argv = (["track", str(seq), "--no-reid", "--calibration", str(path),
                 "-o", str(tmp_path / "t.jsonl")] if command == "track"
                else ["validate-config", command, str(path)])
        code, _, stderr = run(capsys, *argv)
        assert code == EXIT_SCHEMA
        assert stderr == (f"error[schema]: {path}: field 'intrinsics.{field}': "
                          "expected an integer\n")
        assert not (tmp_path / "t.jsonl").exists()


class TestExitCodes:
    @pytest.mark.parametrize("command", ["generate", "track", "experiment"])
    def test_negative_seed_usage_error(self, tmp_path, capsys, command):
        # Refused before anything is read: the sequence named here is absent.
        source = {"generate": ["room_like", "-o"],
                  "track": [str(tmp_path / "absent.jsonl"), "-o"],
                  "experiment": ["room_like", "--out-dir"]}[command]
        out = tmp_path / "out"
        code, _, stderr = run(capsys, command, *source, str(out),
                              "--seed", "-1")
        assert code == EXIT_USAGE
        assert stderr == "error[usage]: --seed must be at least 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", ["track -o dir", "track dir",
                                      "experiment --out-dir file",
                                      "st-sweep --out-dir file"])
    def test_os_error_on_a_path_exits_4(self, tmp_path, capsys, case):
        # Found before any frame runs or any line is printed.
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        argv = {"track -o dir": ["track", str(seq), "--no-reid",
                                 "-o", str(tmp_path / "dir")],
                "track dir": ["track", str(tmp_path / "dir"), "--no-reid",
                              "-o", str(tmp_path / "t.jsonl")],
                "experiment --out-dir file": [
                    "experiment", "lab_corridor_like",
                    "--out-dir", str(tmp_path / "file")],
                "st-sweep --out-dir file": [
                    "experiment", "st-sweep", "--print-config",
                    "--out-dir", str(tmp_path / "file")]}[case]
        code, stdout, stderr = run(capsys, *argv)
        assert code == EXIT_RUNTIME
        assert stdout == ""
        assert stderr.startswith("error[io]: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dir", "file", "seq.jsonl"]


class TestUsageErrors:
    """argparse's usage errors exit 3 with error[usage], as every other
    usage error does; 2 is for a malformed input file."""

    @pytest.mark.parametrize("argv, message", [
        (["track", "SEQ", "--capacity", "abc"],
         "mpfollow track: argument --capacity: invalid int value: 'abc'"),
        (["track", "SEQ", "--bogus"],
         "mpfollow: unrecognized arguments: --bogus"),
        (["track", "SEQ", "--out-dir", "OUT"],
         "mpfollow: unrecognized arguments: --out-dir OUT"),
        (["experiment"], "mpfollow experiment: the following arguments are "
         "required: name"),
        (["generate", "room_like"], "mpfollow generate: the following "
         "arguments are required: -o/--out"),
        ([], "mpfollow: the following arguments are required: command")],
        ids=["bad-int", "unknown-flag", "track-out-dir", "no-experiment",
             "no-output", "no-command"])
    def test_exit_3(self, tmp_path, argv, message):
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        out = tmp_path / "out"
        argv = [{"SEQ": str(seq), "OUT": str(out)}.get(a, a) for a in argv]
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
        assert proc.stderr == "error[usage]: " + message.replace(
            "OUT", str(out)) + "\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["seq.jsonl"]

    @pytest.mark.parametrize("argv", [[], ["track"], ["experiment"]],
                             ids=["mpfollow", "track", "experiment"])
    def test_help_exits_0(self, argv):
        proc = run_process(*argv, "--help")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert proc.stdout.startswith("usage: mpfollow")
        assert ("--out-dir" in proc.stdout) == (argv == ["experiment"])


class TestSetupOrder:
    """track checks its configs, its output path, its calibration and its
    sequence, in that order, and each before it reads the next; generate
    checks its -o before it reads or generates its scenario."""

    STEPS = ("config", "output", "calibration", "sequence")

    @pytest.mark.parametrize("first_bad", STEPS)
    def test_track_refuses_the_first_bad_input(self, tmp_path, capsys,
                                               first_bad):
        # Every input from first_bad on is bad. The sequence never exists,
        # so an error that names anything else shows it was never opened.
        calib = tmp_path / "calib.yaml"
        calib.write_text("intrinsics: {f_x: 500.0, f_y: 500.0, c_x: 320.0, "
                         "c_y: 240.0, image_width: 640, image_height: 480}\n")
        bad = set(self.STEPS[self.STEPS.index(first_bad):])
        seq = tmp_path / "absent.jsonl"
        out = tmp_path / ("nodir/t.jsonl" if "output" in bad else "t.jsonl")
        cal = tmp_path / "absent.yaml" if "calibration" in bad else calib
        argv = ["track", str(seq), "--mode", "SLT", "--print-config",
                "-o", str(out), "--calibration", str(cal)]
        if "config" in bad:
            argv += ["--capacity", "1000000"]
        code, stdout, stderr = run(capsys, *argv)
        assert stdout == ""
        if first_bad == "config":
            assert (code, stderr) == (
                EXIT_USAGE, "error[config]: capacity must be at most 4096\n")
        else:
            named = {"output": out, "calibration": cal, "sequence": seq}
            assert (code, stderr) == (
                EXIT_RUNTIME, "error[io]: [Errno 2] No such file or "
                f"directory: '{named[first_bad]}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["calib.yaml"]

    @pytest.mark.parametrize("scenario", ["room_like", "absent.yaml"])
    def test_generate_refuses_output_before_its_scenario(
            self, tmp_path, capsys, monkeypatch, scenario):
        monkeypatch.setattr(sim, "generate",
                            lambda *args: pytest.fail("generate ran"))
        out = tmp_path / "nodir" / "x.jsonl"
        code, stdout, stderr = run(capsys, "generate",
                                   str(tmp_path / scenario), "-o", str(out))
        assert (code, stdout) == (EXIT_RUNTIME, "")
        assert stderr == ("error[io]: [Errno 2] No such file or directory: "
                          f"'{out}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", "new/"])
    def test_track_refuses_an_output_that_names_no_file(self, tmp_path, capsys,
                                                        monkeypatch, out):
        # Refused before the sequence, which is absent, is opened, with the
        # error open() gives.
        monkeypatch.chdir(tmp_path)
        code, stdout, stderr = run(capsys, "track", "absent.jsonl", "-o", out)
        with pytest.raises(OSError) as opened:
            open(out, "w")
        assert (code, stdout) == (EXIT_RUNTIME, "")
        assert stderr == f"error[io]: {opened.value}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["generate", "track", "experiment"])
    def test_output_under_a_file_is_not_a_directory(self, tmp_path, capsys,
                                                    command):
        # The errno is the one open() or makedirs gives for the path, and
        # the path named is the one given.
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / ("sub" if command == "experiment"
                                    else "x.jsonl")
        argv = {"generate": ["generate", "room_like", "-o"],
                "track": ["track", str(seq), "--no-reid", "-o"],
                "experiment": ["experiment", "room_like", "--out-dir"]}
        code, stdout, stderr = run(capsys, *argv[command], str(out))
        assert (code, stdout) == (EXIT_RUNTIME, "")
        assert stderr == f"error[io]: [Errno 20] Not a directory: '{out}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "afile", "seq.jsonl"]

    @pytest.mark.parametrize("command", ["generate", "track"])
    def test_bad_output_error_names_the_path_given(self, tmp_path, capsys,
                                                   command):
        # The same run twice prints the same stderr, which names the -o
        # given, not a temporary file's random name.
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        out = tmp_path / ("nodir/x.jsonl" if command == "generate" else "dir")
        (tmp_path / "dir").mkdir()
        argv = (["generate", "room_like"] if command == "generate"
                else ["track", str(seq), "--no-reid"])
        errors = [run(capsys, *argv, "-o", str(out))[2] for _ in range(2)]
        assert errors[0] == errors[1]
        assert errors[0].startswith("error[io]: [Errno ")
        assert errors[0].endswith(f": '{out}'\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == [
            "dir", "seq.jsonl"]
