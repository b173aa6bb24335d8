import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import mpfollow
from mpfollow import evaluation
from mpfollow.cli import EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main
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
         "pedestrians[0].waypoints[0]: expected [t, x, y]"),
        ("  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n"
         "robot_path: [[0.0, 0.0, 0.0, 0.0], [5.0, 1.0, 0.0]]\n",
         "robot_path[1]: expected [t, x, y, theta]"),
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

    def test_print_config(self, tmp_path, capsys, sequence):
        code, stdout, _ = run(capsys, "track", str(sequence),
                              "--capacity", "32", "--mode", "SLT",
                              "--print-config",
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK
        cfg = json.loads(stdout[:stdout.index("wrote")])
        assert cfg["reid"]["capacity"] == 32
        assert cfg["reid"]["mode"] == "SLT"
        assert sorted(cfg["tracker"]) == ["delta_iou", "gate_distance",
                                          "measurement_noise_std", "r_body"]
        assert sorted(cfg["reid"]) == ["capacity", "delta_id", "delta_switch",
                                       "lam", "mode", "n_id"]

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

    def test_unknown_experiment(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "experiment", "bogus",
                              "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert "error[usage]" in stderr

    def test_out_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MPFOLLOW_OUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "experiment", "lab_corridor_like")
        assert code == EXIT_OK
        assert (tmp_path / "lab_corridor_like" / "metrics.txt").exists()

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
    def test_delta_iou_out_of_range_usage_error(self, tmp_path, command):
        seq = tmp_path / "seq.jsonl"
        seq.write_text(ONE_FRAME_SEQUENCE)
        source = str(seq) if command == "track" else "lab_corridor_like"
        proc = run_process(command, source, "--delta-iou", "2",
                           "-o" if command == "track" else "--out-dir",
                           str(tmp_path / "out"))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error[config]: delta_iou must be in")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", ["track", "experiment"])
    @pytest.mark.parametrize("flag, value", [
        ("--capacity", "-1"), ("--capacity", "0"), ("--n-id", "0"),
        ("--n-id", "-3"), ("--lam", "nan"), ("--lam", "inf"),
        ("--delta-switch", "nan"), ("--delta-id", "2"), ("--r-body", "0"),
        ("--r-body", "-0.25"), ("--r-body", "nan")])
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
           {"lam": 5.0, "delta_id": 0.9, "mode": "ST", "capacity": c}, True)
          for c in (16, 32, 64, 128)]),
        ("slt-vs-st", ["--lam", "5", "--delta-id", "0.9"],
         [("corridor1_like", {}, {"lam": 5.0, "delta_id": 0.9, "mode": m,
                                  "capacity": 64}, True) for m in ("ST", "SLT")]),
        ("range-accuracy", ["--r-body", "0.5", "--delta-iou", "0.1",
                            "--n-id", "2"],
         [("range_sweep", {"r_body": 0.5, "delta_iou": 0.1,
                           "measurement_noise_std": 0.3, "gate_distance": 2.0},
           {"n_id": 2}, False)]),
        ("room_like", ["--mode", "SLT", "--capacity", "8", "--delta-iou", "0.2"],
         [("room_like", {"delta_iou": 0.2}, {"mode": "SLT", "capacity": 8},
           True)])])
    def test_experiment_runs_with_flag_configs(self, tmp_path, capsys,
                                               monkeypatch, name, flags, runs):
        # Each run gets the configs the flags give; an experiment sets only
        # the fields it sweeps.
        seen = []

        def fake_run(scenario, tracker_cfg, reid_cfg, seed, reid_enabled=True,
                     out_dir=None):
            seen.append((scenario.name, tracker_cfg, reid_cfg, reid_enabled))
            return SimpleNamespace(ap=0.5), SimpleNamespace(bins=[]), []

        monkeypatch.setattr(evaluation, "run_experiment", fake_run)
        code, _, _ = run(capsys, "experiment", name, *flags,
                         "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert seen == [(scenario, TrackerConfig(**tracker), ReidConfig(**reid),
                         reid_enabled)
                        for scenario, tracker, reid, reid_enabled in runs]

    @pytest.mark.parametrize("name", ["st-sweep", "slt-vs-st",
                                      "range-accuracy", "room_like"])
    def test_print_config_for_every_experiment(self, tmp_path, capsys,
                                               monkeypatch, name):
        # The flag-built configs come first, once, before any run's output.
        monkeypatch.setattr(
            evaluation, "run_experiment", lambda *args, **kwargs: (
                SimpleNamespace(ap=0.5), SimpleNamespace(bins=[]), []))
        code, stdout, _ = run(capsys, "experiment", name, "--lam", "5",
                              "--r-body", "0.3", "--seed", "2",
                              "--print-config", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        cfg, end = json.JSONDecoder().raw_decode(stdout)
        assert cfg == {"tracker": vars(TrackerConfig(r_body=0.3)),
                       "reid": vars(ReidConfig(lam=5.0)), "seed": 2}
        assert "{" not in stdout[end:]

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
    @pytest.mark.parametrize("flag", ["--mode=SLT", "--capacity=32"])
    def test_swept_flag_refused(self, tmp_path, capsys, name, flag):
        code, _, stderr = run(capsys, "experiment", name, flag,
                              "--out-dir", str(tmp_path))
        assert code == EXIT_USAGE
        assert stderr.startswith(f"error[config]: experiment {name} sets "
                                 "--mode and --capacity")
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
         "pedestrians[0]"),
        ("duration: 1.0\ndescriptor_noise_std: .nan\n", "descriptor_noise_std"),
        ("duration: 1.0\ndescriptor_noise_std: -1.0\n", "descriptor_noise_std"),
        ("duration: 1.0\nviewpoint_amplitude: .inf\n", "viewpoint_amplitude"),
        ("duration: 1.0\ndescriptor_dim: 4\npedestrians:\n"
         "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n"
         "  - {id: 1, cluster: 1, waypoints: [[0.0, 3.0, 1.0]]}\n",
         "descriptor_dim")])
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
        assert stderr.startswith(f"error[schema]: {sc}: {field}")
        assert not (tmp_path / "seq.jsonl").exists()

    @pytest.mark.parametrize("command", ["track", "validate-config"])
    @pytest.mark.parametrize("f_x, extra, where", [
        (".inf", "", "intrinsics"), (".nan", "", "intrinsics"),
        ("-.inf", "", "intrinsics"), ("x", "", "intrinsics"),
        ("500.0", "extrinsics: 5\n", "extrinsics"),
        ("500.0", "extrinsics: {t_robot_cam: [a, 0, 0]}\n", "extrinsics"),
        ("500.0", "extrinsics: {r_robot_cam: {rpy: [0, 1]}}\n", "extrinsics"),
        ("500.0", "extrinsics: {t_robot_cam: [.nan, 0, 0]}\n",
         "extrinsics: field 'extrinsics.t_robot_cam'"),
        ("500.0", "extrinsics: {t_world_robot: [0, .inf, 0]}\n",
         "extrinsics: field 'extrinsics.t_world_robot'"),
        ("500.0", "extrinsics: {t_robot_cam: [.nan, 0, 0],\n"
         "             t_world_robot: [0, .inf, 0]}\n",
         "extrinsics: field 'extrinsics.t_world_robot'"),
        ("500.0", "extrinsics: {t_robot_cam: [0, 0]}\n",
         "extrinsics: field 'extrinsics.t_robot_cam'"),
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
