import numpy as np
import pytest

from mpfollow.geometry import FORWARD_CAMERA_ROTATION
from mpfollow.seqio import (
    SEQUENCE_FORMAT,
    SchemaError,
    load_calibration,
    load_scenario,
    read_sequence,
    scenario_from_dict,
    scenario_to_dict,
    write_sequence,
)
from mpfollow.sim import builtin_scenarios, generate


@pytest.fixture
def frames():
    sc = builtin_scenarios()["lab_corridor_like"]
    return generate(sc, seed=0)[:40]


class TestSequenceRoundTrip:
    def test_round_trip_preserves_content(self, tmp_path, frames):
        path = tmp_path / "seq.jsonl"
        write_sequence(frames, str(path))
        loaded = read_sequence(str(path))
        assert len(loaded) == len(frames)
        for a, b in zip(frames, loaded):
            assert a.frame_index == b.frame_index
            assert a.timestamp == pytest.approx(b.timestamp, abs=1e-9)
            assert a.robot_pose == pytest.approx(b.robot_pose, abs=1e-9)
            assert len(a.detections) == len(b.detections)
            for da, db in zip(a.detections, b.detections):
                np.testing.assert_allclose(da.box.as_array(),
                                           db.box.as_array(), atol=1e-5)
                np.testing.assert_allclose(da.descriptor, db.descriptor,
                                           atol=1e-6)
                assert da.person_id == db.person_id
            assert set(a.pedestrian_positions) == set(b.pedestrian_positions)

    def test_format_header_written(self, tmp_path, frames):
        path = tmp_path / "seq.jsonl"
        write_sequence(frames, str(path))
        first = path.read_text().splitlines()[0]
        assert SEQUENCE_FORMAT in first

    def test_write_is_atomic_no_leftover_tmp(self, tmp_path, frames):
        write_sequence(frames, str(tmp_path / "seq.jsonl"))
        assert [p.name for p in tmp_path.iterdir()] == ["seq.jsonl"]


class TestSequenceErrors:
    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "mpfollow-seq-1"}\n{broken\n')
        with pytest.raises(SchemaError, match=":2"):
            read_sequence(str(p))

    def test_missing_field_reports_name(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"frame_index": 0, "detections": []}\n')
        with pytest.raises(SchemaError, match="timestamp"):
            read_sequence(str(p))

    def test_bad_box_reports_index(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"frame_index": 0, "timestamp": 0.0, '
                     '"detections": [{"box": [1, 2, 3]}]}\n')
        with pytest.raises(SchemaError, match=r"detections\[0\].box"):
            read_sequence(str(p))

    def test_unsupported_format_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "other-2"}\n'
                     '{"frame_index": 0, "timestamp": 0.0, "detections": []}\n')
        with pytest.raises(SchemaError, match="unsupported format"):
            read_sequence(str(p))

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(SchemaError, match="no frames"):
            read_sequence(str(p))


    @pytest.mark.parametrize("second", ["NaN", "Infinity", "0.1", "0.05",
                                        '"soon"'])
    def test_bad_timestamp_rejected(self, tmp_path, second):
        # Non-finite, repeated, decreasing or non-numeric timestamps are
        # refused at load, naming the line and the field.
        p = tmp_path / "bad.jsonl"
        p.write_text('{"format": "mpfollow-seq-1"}\n'
                     '{"frame_index": 0, "timestamp": 0.1, "detections": []}\n'
                     f'{{"frame_index": 1, "timestamp": {second}, '
                     '"detections": []}\n')
        with pytest.raises(SchemaError, match=":3: field 'timestamp'"):
            read_sequence(str(p))

    def test_increasing_timestamps_accepted(self, tmp_path):
        p = tmp_path / "ok.jsonl"
        p.write_text('{"frame_index": 0, "timestamp": -1.0, "detections": []}\n'
                     '{"frame_index": 1, "timestamp": 0.25, "detections": []}\n')
        assert [f.timestamp for f in read_sequence(str(p))] == [-1.0, 0.25]


class TestCalibration:
    def test_load_minimal(self, tmp_path):
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n")
        intr, extr = load_calibration(str(p))
        assert intr.f_x == 500.0
        np.testing.assert_allclose(extr.R_robot_cam, FORWARD_CAMERA_ROTATION)

    def test_load_full_extrinsics(self, tmp_path):
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n"
            "extrinsics:\n"
            "  r_world_robot: identity\n"
            "  t_world_robot: [1.0, 2.0, 0.0]\n"
            "  r_robot_cam:\n"
            "    rpy: [0.0, 0.0, 0.0]\n"
            "  t_robot_cam: [0.1, 0.0, 0.5]\n")
        _, extr = load_calibration(str(p))
        np.testing.assert_allclose(extr.t_world_robot, [1.0, 2.0, 0.0])
        np.testing.assert_allclose(extr.R_robot_cam, np.eye(3))

    def test_missing_intrinsic_field(self, tmp_path):
        p = tmp_path / "calib.yaml"
        p.write_text("intrinsics:\n  f_x: 500.0\n")
        with pytest.raises(SchemaError, match="f_y"):
            load_calibration(str(p))

    def test_invalid_rotation_value(self, tmp_path):
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n"
            "extrinsics:\n"
            "  r_robot_cam: [1, 0, 0]\n")
        with pytest.raises(SchemaError, match="r_robot_cam"):
            load_calibration(str(p))


class TestScenarioFiles:
    def test_dict_round_trip(self):
        sc = builtin_scenarios()["corridor1_like"]
        restored = scenario_from_dict(scenario_to_dict(sc))
        assert restored.name == sc.name
        assert restored.similarity == sc.similarity
        assert len(restored.pedestrians) == len(sc.pedestrians)
        assert len(restored.occlusions) == len(sc.occlusions)
        assert len(restored.drifts) == len(sc.drifts)
        a = generate(sc, seed=0)
        b = generate(restored, seed=0)
        for fa, fb in zip(a, b):
            assert len(fa.detections) == len(fb.detections)

    def test_load_yaml(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text(
            "name: tiny\n"
            "duration: 2.0\n"
            "pedestrians:\n"
            "  - id: 0\n"
            "    waypoints: [[0.0, 3.0, 0.0], [2.0, 3.0, 0.5]]\n")
        sc = load_scenario(str(p))
        assert sc.name == "tiny"
        assert len(generate(sc, seed=0)) == 20

    def test_invalid_scenario_reports_path(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text("name: broken\nduration: -1.0\n"
                     "pedestrians:\n  - id: 0\n"
                     "    waypoints: [[0.0, 3.0, 0.0]]\n")
        with pytest.raises(SchemaError, match="duration"):
            load_scenario(str(p))

    def test_missing_waypoints(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text("name: broken\nduration: 5.0\n"
                     "pedestrians:\n  - id: 0\n")
        with pytest.raises(SchemaError, match="waypoints"):
            load_scenario(str(p))
