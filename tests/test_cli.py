import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpfollow
from mpfollow import evaluation
from mpfollow.cli import EXIT_OK, EXIT_SCHEMA, EXIT_USAGE, main
from mpfollow.seqio import load_scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        seq.write_text(
            '{"format": "mpfollow-seq-1"}\n'
            '{"frame_index": 0, "timestamp": 0.0, "robot_pose": [0, 0, 0], '
            '"detections": [{"box": [600, 200, 680, 500]}]}\n')
        code, _, stderr = run(capsys, "track", str(seq),
                              "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_USAGE
        assert "no descriptors" in stderr
        code, _, _ = run(capsys, "track", str(seq), "--no-reid",
                         "-o", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK

    def test_zero_descriptor_schema_error(self, tmp_path):
        # A malformed descriptor is bad input: exit 2, no traceback.
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
        src = str(Path(mpfollow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "mpfollow.cli", "track", str(seq),
                "-o", str(tmp_path / "t.jsonl")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_SCHEMA
        assert "error[schema]: frame 2:" in proc.stderr
        assert "Traceback" not in proc.stderr
        proc = subprocess.run(argv + ["--no-reid"], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_OK

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
            f"error[schema]: frame {rec['frame_index']}: descriptor has "
            "dimension 4, expected 8")

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
