import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfollow import cli
from mpfollow.geometry import FORWARD_CAMERA_ROTATION
from mpfollow.seqio import (
    SEQUENCE_FORMAT,
    SchemaError,
    frame_to_record,
    load_calibration,
    load_scenario,
    read_sequence,
    scenario_from_dict,
    scenario_to_dict,
    write_sequence,
)
from mpfollow.sim import Pedestrian, RobotPath, Scenario, builtin_scenarios, generate


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

    def test_descriptor_length_fixed_by_first(self, tmp_path):
        # The sequence's first descriptor fixes the length for every later
        # one, in the same record or another.
        def line(i, *descs):
            return json.dumps({"frame_index": i, "timestamp": 0.1 * i,
                               "detections": [{"box": [600, 200, 680, 500],
                                               "descriptor": d} for d in descs]})
        unit = [1.0] + [0.0] * 511
        p = tmp_path / "seq.jsonl"
        p.write_text(line(0) + "\n" + line(1, unit) + "\n"
                     + line(2, unit, [0.0] * 511 + [2.0]) + "\n")
        assert [f.detections[-1].descriptor.size
                for f in read_sequence(str(p))[1:]] == [512, 512]
        for bad in (line(2, unit, [1.0, 2.0]), line(2, [1.0, 2.0])):
            p.write_text(line(0) + "\n" + line(1, unit) + "\n" + bad + "\n")
            with pytest.raises(SchemaError, match=r":3: field 'detections"
                               r"\[\d\]\.descriptor': .* the sequence's first"):
                read_sequence(str(p))

    @pytest.mark.parametrize("field, value", [
        ("frame_index", "x"), ("frame_index", 3.7), ("frame_index", True),
        ("detections", {"box": [600, 200, 680, 500]}), ("detections", [3]),
        ("box", [0, 100, np.inf, 400]), ("box", [0, 100, 1e-160, 400]),
        ("box", [600, 200, 600.5, 500]), ("box", [600, 500, 680, 200]),
        ("box", [600, "200", 680, 500]), ("box", [600, True, 680, 500]),
        ("descriptor", [0.0] * 8), ("descriptor", [np.nan] + [1.0] * 7),
        ("descriptor", [np.inf] + [1.0] * 7), ("descriptor", [1e200] * 8),
        ("descriptor", [1.0] * 7), ("descriptor", ["1.0"] * 8),
        ("descriptor", [[1.0] * 8]), ("descriptor", [10 ** 400] * 8),
        ("descriptor", 1.0),
        ("robot_pose", [0, np.nan, 0]), ("robot_pose", ["0", "0", "0"]),
        ("robot_pose", 0.0), ("robot_pose", [0, 0]),
        ("person_id", "0"), ("person_id", 1.5),
        ("ground_truth", {"x": [1.0, 2.0]}), ("ground_truth", {"0": 3.0}),
        ("ground_truth", [[1.0, 2.0]]), ("ground_truth", {"0": [1.0]}),
        ("ground_truth", {"0": [1.0, np.inf]}),
    ])
    def test_malformed_value_refused_at_load(self, tmp_path, field, value):
        # Each value is checked once, at load; the error names the file,
        # the line and the field. The second line holds the bad value.
        ok = {"frame_index": 0, "timestamp": 0.0, "robot_pose": [0, 0, 0],
              "detections": [{"box": [600, 200, 680, 500],
                              "descriptor": [1.0] * 8, "person_id": 0}],
              "ground_truth": {"0": [3.0, 0.0]}}
        bad = json.loads(json.dumps(ok)) | {"frame_index": 1,
                                             "timestamp": 0.1}
        owner = bad["detections"][0] if field in (
            "box", "descriptor", "person_id") else bad
        owner[field] = value
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps(ok) + "\n" + json.dumps(bad) + "\n")
        where = "detections[0]." + field if owner is not bad else field
        with pytest.raises(SchemaError, match=re.escape(f"{p}:2: field '{where}")):
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

    @pytest.mark.parametrize("field", ["r_world_robot", "r_robot_cam"])
    @pytest.mark.parametrize("matrix, why", [
        ([2, 0, 0, 0, 2, 0, 0, 0, 2], "is not orthonormal"),
        ([1, 0, 0, 0, 1, 0, 0, 0, -1], "must have determinant"),
    ], ids=["scaled", "reflection"])
    def test_non_rotation_refused(self, tmp_path, field, matrix, why):
        # Rotations enter from outside only here, so here they are checked.
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n"
            f"extrinsics:\n  {field}: {matrix}\n")
        with pytest.raises(SchemaError, match=f"extrinsics.{field} {why}"):
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


# ---------------------------------------------------------------------------
# The loader owns the sequence contract: whatever one line holds, the file
# is either refused at load, naming that line, or tracked to the end.

def _short_sequence():
    # 5-value descriptors, so that drawn lists can have the right length.
    sc = Scenario(name="short", duration=1.2, descriptor_dim=5,
                  box_pixel_std=0.5, robot_path=RobotPath([(0.0, 0.0, 0.0, 0.0)]),
                  pedestrians=[Pedestrian(0, [(0.0, 3.0, 0.6)]),
                               Pedestrian(1, [(0.0, 3.0, -0.8)], cluster=1)])
    return [frame_to_record(f) for f in generate(sc, seed=0)]


RECORDS = _short_sequence()
FIELDS = ("frame_index", "timestamp", "robot_pose", "detections",
          "ground_truth", "ground_truth.0", "box", "descriptor", "person_id")
json_numbers = (st.integers() | st.floats()
                | st.sampled_from([1e300, -1e300, 1e-300, 1e-160, 0.0]))
json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | json_numbers,
    lambda inner: (st.lists(inner, max_size=6)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=10)


def _track(path, *flags):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["track", path, "-o", path + ".tracks", *flags])


@given(st.integers(0, len(RECORDS) - 1), st.sampled_from(FIELDS), json_values)
@example(8, "box", [0, 100, 1e-160, 400])
@example(8, "descriptor", ["a"] * 5)
@example(8, "descriptor", [[1.0] * 5])
@example(8, "frame_index", 3.7)
@example(8, "ground_truth", [[1.0, 2.0]])
@example(0, "timestamp", -1e300)  # found by this test: a 1e300-s frame gap
@settings(max_examples=150, deadline=None)
def test_any_one_value_is_refused_at_load_or_tracked(tmp_path_factory, k,
                                                     field, value):
    records = json.loads(json.dumps(RECORDS))
    rec = records[k]
    if field in ("box", "descriptor", "person_id"):
        if not rec["detections"]:
            return
        rec["detections"][0][field] = value
    elif field == "ground_truth.0":
        rec["ground_truth"]["0"] = value
    else:
        rec[field] = value
    path = str(tmp_path_factory.mktemp("seq") / "seq.jsonl")
    with open(path, "w") as f:
        f.write("".join(json.dumps(r) + "\n" for r in records))
    try:
        read_sequence(path)
    except SchemaError as e:
        # A timestamp that is fine on its own can instead break the next
        # line's order.
        lines = {f"{path}:{k + 1}:"} | ({f"{path}:{k + 2}:"}
                                         if field == "timestamp" else set())
        assert any(str(e).startswith(line) for line in lines), str(e)
        return
    assert _track(path) == 0
    assert _track(path, "--no-reid") == 0


def test_person_walking_off_the_image_loads_and_tracks(tmp_path):
    # Person 0 slowly crosses the right image edge (y = -3.84 m at 3 m), so
    # its clipped box shrinks until the person is gone; generate keeps no
    # box that track would refuse.
    sc = Scenario(name="exit", duration=8.0, box_pixel_std=0.5,
                  robot_path=RobotPath([(0.0, 0.0, 0.0, 0.0)]),
                  pedestrians=[Pedestrian(0, [(0.0, 3.0, -3.6), (8.0, 3.0, -4.1)]),
                               Pedestrian(1, [(0.0, 3.0, 1.0)], cluster=1)])
    frames = generate(sc, seed=0)
    widths = [d.box.width for f in frames for d in f.detections
              if d.person_id == 0]
    assert min(widths) < 3 and len(widths) < len(frames)  # it did leave
    path = tmp_path / "seq.jsonl"
    write_sequence(frames, str(path))
    assert len(read_sequence(str(path))) == len(frames)
    assert _track(str(path)) == 0
    assert _track(str(path), "--no-reid") == 0
