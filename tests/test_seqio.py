import contextlib
import dataclasses
import io
import json
import os
import re
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpfollow import cli, seqio
from mpfollow.geometry import FORWARD_CAMERA_ROTATION, CameraIntrinsics
from mpfollow.seqio import (
    SEQUENCE_FORMAT,
    SchemaError,
    frame_to_record,
    load_calibration,
    load_scenario,
    read_sequence,
    write_jsonl,
    write_sequence,
)
from mpfollow.sim import (
    DEFAULT_INTRINSICS,
    DriftEvent,
    OcclusionEvent,
    Pedestrian,
    RobotPath,
    Scenario,
    builtin_scenarios,
    generate,
)


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

    @pytest.mark.parametrize("header, why", [
        ('{"format": 1}', "field 'format': unsupported format '1'"),
        ('{"format": "mpfollow-seq-1", "colour": 1}',
         "field 'colour': unknown key (expected one of format)")],
        ids=["number", "extra-key"])
    def test_header_read_by_its_table(self, tmp_path, header, why):
        p = tmp_path / "bad.jsonl"
        p.write_text(header + "\n"
                     '{"frame_index": 0, "timestamp": 0.0, "detections": []}\n')
        with pytest.raises(SchemaError) as e:
            read_sequence(str(p))
        assert str(e.value) == f"{p}:1: {why}"

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
        ("descriptor", 1.0), ("descriptor", [True, False] + [1.0] * 6),
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

    @pytest.mark.parametrize("line, where", [
        ('{"timestamp": 0.0, "detections": []}', "frame_index"),
        ('{"frame_index": 0, "detections": []}', "timestamp"),
        ('{"frame_index": 0, "timestamp": 0.0}', "detections"),
        ('{"frame_index": 0, "timestamp": 0.0, "detections": '
         '[{"descriptor": [1.0]}]}', "detections[0].box")])
    def test_missing_key_reads_missing(self, tmp_path, line, where):
        p = tmp_path / "bad.jsonl"
        p.write_text(line + "\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{p}:1: field '{where}': missing")):
            read_sequence(str(p))

    def test_null_optional_key_reads_as_absent(self, tmp_path):
        line = {"frame_index": 0, "timestamp": 0.0,
                "detections": [{"box": [600, 200, 680, 500]}]}
        nulls = json.loads(json.dumps(line))
        nulls.update(robot_pose=None, ground_truth=None)
        nulls["detections"][0].update(descriptor=None, person_id=None)
        p = tmp_path / "seq.jsonl"
        for rec in (line, nulls):
            p.write_text(json.dumps(rec) + "\n")
            (frame,) = read_sequence(str(p))
            assert (frame.robot_pose, frame.pedestrian_positions) == (None, {})
            (det,) = frame.detections
            assert (det.descriptor, det.person_id) == (None, None)

    def test_room_like_reads_back_with_the_built_types(self, tmp_path):
        # What the frame loop and evaluation were written against.
        p = tmp_path / "room.jsonl"
        write_sequence(generate(builtin_scenarios()["room_like"], 0), str(p))
        frames = read_sequence(str(p))
        assert all(type(f.frame_index) is int and type(f.timestamp) is float
                   for f in frames)
        for f in frames:
            assert type(f.robot_pose) is tuple and len(f.robot_pose) == 3
            assert all(type(v) is float for v in f.robot_pose)
            assert type(f.pedestrian_positions) is dict
            for pid, pos in f.pedestrian_positions.items():
                assert type(pid) is int and type(pos) is tuple
                assert [type(v) for v in pos] == [float, float]
            for d in f.detections:
                assert [type(v) for v in (d.box.u_tl, d.box.v_tl, d.box.u_br,
                                          d.box.v_br)] == [float] * 4
                assert type(d.descriptor) is np.ndarray
                assert d.descriptor.dtype == np.float64
                assert d.descriptor.shape == (512,)
                assert type(d.person_id) is int
        assert sum(len(f.detections) for f in frames) > 0

    def test_increasing_timestamps_accepted(self, tmp_path):
        # Blank and whitespace-only lines between and after them are skipped.
        p = tmp_path / "ok.jsonl"
        p.write_text('{"frame_index": 0, "timestamp": -1.0, "detections": []}\n'
                     '\n \t\r\n'
                     '{"frame_index": 1, "timestamp": 0.25, "detections": []}\n'
                     '  \n')
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
        # The calibration gives only the mount; the robot sits at the origin.
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n"
            "extrinsics:\n"
            "  r_robot_cam:\n"
            "    rpy: [1.5707963267948966, -1.5707963267948966, 0.0]\n"
            "  t_robot_cam: [0.1, 0.0, 0.5]\n")
        _, extr = load_calibration(str(p))
        np.testing.assert_allclose(extr.R_robot_cam, FORWARD_CAMERA_ROTATION,
                                   atol=1e-15)
        np.testing.assert_array_equal(extr.t_robot_cam, [0.1, 0.0, 0.5])
        np.testing.assert_array_equal(extr.R_world_robot, np.eye(3))
        np.testing.assert_array_equal(extr.t_world_robot, np.zeros(3))

    @pytest.mark.parametrize("extrinsics", [
        "extrinsics:\n",
        "extrinsics:\n  # r_robot_cam: forward\n  # t_robot_cam: [0, 0, 1]\n"])
    def test_empty_extrinsics_is_the_default_mount(self, tmp_path, extrinsics):
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n" + extrinsics)
        _, extr = load_calibration(str(p))
        np.testing.assert_array_equal(extr.R_robot_cam, FORWARD_CAMERA_ROTATION)
        np.testing.assert_array_equal(extr.t_robot_cam, np.zeros(3))

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

    @pytest.mark.parametrize("matrix, why", [
        ([2, 0, 0, 0, 2, 0, 0, 0, 2], "is not orthonormal"),
        ([1, 0, 0, 0, 1, 0, 0, 0, -1], "must have determinant"),
    ], ids=["scaled", "reflection"])
    def test_non_rotation_refused(self, tmp_path, matrix, why):
        # A mount enters from a file here, so here its rotation is checked.
        p = tmp_path / "calib.yaml"
        p.write_text(
            "intrinsics:\n"
            "  f_x: 500.0\n  f_y: 500.0\n  c_x: 320.0\n  c_y: 240.0\n"
            "  image_width: 640\n  image_height: 480\n"
            f"extrinsics:\n  r_robot_cam: {matrix}\n")
        with pytest.raises(SchemaError, match="field 'extrinsics.r_robot_cam': "
                           f"the rotation {why}"):
            load_calibration(str(p))


def test_exponent_numbers_are_numbers_in_every_yaml_file(tmp_path):
    # YAML 1.1 reads 1e-5 as text; both file kinds read it as JSON does.
    p = tmp_path / "calib.yaml"
    p.write_text(
        "intrinsics: {f_x: 5e2, f_y: 5.0E+2, c_x: 320, c_y: 240,\n"
        "             image_width: 640, image_height: 480}\n"
        "extrinsics: {t_robot_cam: [1e-5, -2E3, .5e1]}\n")
    intr, extr = load_calibration(str(p))
    assert (intr.f_x, intr.f_y) == (500.0, 500.0)
    np.testing.assert_array_equal(extr.t_robot_cam, [1e-5, -2000.0, 5.0])
    p = tmp_path / "scenario.yaml"
    p.write_text("duration: 1e1\ndescriptor_noise_std: 1e-5\n"
                 "pedestrians: [{id: 0, waypoints: [[0, 3e0, 0]]}]\n")
    sc = load_scenario(str(p))
    assert (sc.duration, sc.descriptor_noise_std) == (10.0, 1e-5)
    assert sc.pedestrians[0].waypoints == [(0.0, 3.0, 0.0)]


# Every scenario key set off its default, in a file and in Python.
EVERY_KEY_YAML = """\
name: every_key
duration: 4.0
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
     waypoints: [[0.0, 2.5, 0.4], [4.0, 3.5, -0.2]]}
  - {id: 5, cluster: 3, radius: 0.2, height: 1.6, phase_offset: 1.5,
     waypoints: [[0.0, 4.0, -0.6], [4.0, 2.0, 0.6]]}
robot_path: [[0.0, 0.0, 0.0, 0.0], [4.0, 0.4, 0.1, 0.05]]
occlusions:
  - {ped_id: 2, t_start: 1.0, t_end: 1.5}
drifts:
  - {ped_id: 5, t_start: 2.0, t_end: 3.5, toward_cluster: 4, amount: 0.6,
     ramp: 0.5}
"""
EVERY_KEY = Scenario(
    name="every_key", duration=4.0, frame_rate=12.5,
    intrinsics=CameraIntrinsics(610.0, 590.0, 330.0, 250.0, 640, 480),
    box_pixel_std=0.75, descriptor_noise_std=0.02, viewpoint_amplitude=0.3,
    similarity=0.4, descriptor_dim=48, target_id=2,
    pedestrians=[
        Pedestrian(2, [(0.0, 2.5, 0.4), (4.0, 3.5, -0.2)], radius=0.3,
                   height=1.8, cluster=1, phase_offset=0.5),
        Pedestrian(5, [(0.0, 4.0, -0.6), (4.0, 2.0, 0.6)], radius=0.2,
                   height=1.6, cluster=3, phase_offset=1.5)],
    robot_path=RobotPath([(0.0, 0.0, 0.0, 0.0), (4.0, 0.4, 0.1, 0.05)]),
    occlusions=[OcclusionEvent(2, 1.0, 1.5)],
    drifts=[DriftEvent(5, 2.0, 3.5, toward_cluster=4, amount=0.6, ramp=0.5)])


class TestScenarioFiles:
    def test_every_key_loads_as_built_in_python(self, tmp_path):
        # A misread key makes the two differ; a key left at its default
        # would not show it, so every value here is off its default.
        p = tmp_path / "scenario.yaml"
        p.write_text(EVERY_KEY_YAML)
        assert load_scenario(str(p)) == EVERY_KEY
        for obj in (EVERY_KEY, *EVERY_KEY.pedestrians, *EVERY_KEY.drifts):
            for f in dataclasses.fields(obj):
                assert getattr(obj, f.name) != f.default, f.name

    @pytest.mark.parametrize("table, cls", [
        (seqio._INTRINSICS, CameraIntrinsics), (seqio._PEDESTRIAN, Pedestrian),
        (seqio._OCCLUSION, OcclusionEvent), (seqio._DRIFT, DriftEvent),
        (seqio._SCENARIO, Scenario)])
    def test_table_keys_are_the_dataclass_fields(self, table, cls):
        # Each schema is written once: a table's keys are its class's fields.
        assert table.build is cls
        assert set(table.kinds) == {f.name for f in dataclasses.fields(cls)}

    def test_robot_path_rows_stand_for_robot_path(self):
        assert [f.name for f in dataclasses.fields(RobotPath)] == ["waypoints"]
        read = seqio._SCENARIO.kinds["robot_path"]
        assert read([[0, 1, 2, 3]], "robot_path") == \
            RobotPath([(0.0, 1.0, 2.0, 3.0)])

    def test_readme_yaml_blocks_load(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```yaml\n(.*?)```", readme.read_text(), re.S)
        kinds = ["scenario" if "duration:" in b else "calibration"
                 for b in blocks]
        assert sorted(kinds) == ["calibration", "scenario"]
        for kind, block in zip(kinds, blocks):
            p = tmp_path / f"{kind}.yaml"
            p.write_text(block)
            (load_scenario if kind == "scenario" else load_calibration)(str(p))

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

    def test_empty_intrinsics_is_the_default_camera(self, tmp_path):
        p = tmp_path / "scenario.yaml"
        p.write_text("duration: 2.0\nintrinsics: null\npedestrians:\n"
                     "  - {id: 0, waypoints: [[0.0, 3.0, 0.0]]}\n")
        assert load_scenario(str(p)).intrinsics == DEFAULT_INTRINSICS

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


class TestAtomicWrite:
    @pytest.mark.parametrize("target", ["nodir/x.jsonl", "dir"])
    def test_os_error_names_the_path_and_leaves_no_temp_file(self, tmp_path,
                                                              target):
        (tmp_path / "dir").mkdir()
        path = tmp_path / target
        with pytest.raises(OSError) as e:
            write_jsonl([{"a": 1}], str(path))
        code = e.value.errno
        assert str(e.value) == f"[Errno {code}] {os.strerror(code)}: '{path}'"
        assert [p.name for p in tmp_path.rglob("*")] == ["dir"]

    @staticmethod
    def rows(n, fail_after=None):
        # Made one at a time, as the track command makes its rows.
        for i in range(n):
            if i == fail_after:
                raise RuntimeError("tracking failed")
            yield {"frame_index": i, "track_id": i % 7, "x": 1.234567,
                   "y": -0.5, "box": [100.123, 200.456, 180.789, 400.012],
                   "is_target": None}

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_rows_are_written_in_memory_that_does_not_grow(self, tmp_path, n):
        # 20,000 rows are 2.5 MB of text; held whole, even 2,000 peaked at
        # over 600 KB. Written line by line, both stay under one bound.
        path = tmp_path / "rows.jsonl"
        tracemalloc.start()
        try:
            assert write_jsonl(self.rows(n), str(path)) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert path.read_bytes() == b"".join(
            json.dumps(row).encode() + b"\n" for row in self.rows(n))

    @pytest.mark.parametrize("fail_after", [0, 1, 5000])
    def test_rows_that_raise_leave_the_old_file(self, tmp_path, fail_after):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="tracking failed"):
            write_jsonl(self.rows(10000, fail_after), str(path))
        assert path.read_bytes() == b"old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    @pytest.mark.parametrize("rows, text", [([], b"\n"),
                                            ([{"a": 1}], b'{"a": 1}\n')])
    def test_rows_and_their_count(self, tmp_path, rows, text):
        path = tmp_path / "rows.jsonl"
        assert write_jsonl(iter(rows), str(path)) == len(rows)
        assert path.read_bytes() == text

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000],
                             ids="{:03o}".format)
    def test_output_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "w") as f:
                f.write("x\n")
            write_jsonl([{"a": 1}], str(tmp_path / "rows.jsonl"))
            seqio.write_text(["x\n"], str(tmp_path / "text"))
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode)
                 for p in tmp_path.iterdir()}
        assert modes == dict.fromkeys(("plain", "rows.jsonl", "text"),
                                      0o666 & ~umask)

    @pytest.mark.parametrize("kind", ["mode-600", "mode-750", "symlink",
                                      "dangling-symlink"])
    def test_existing_output_is_written_as_open_writes_it(self, tmp_path, kind):
        # Through a symbolic link to its target, and with the permission
        # bits of the file replaced: the tree left is the one open() leaves.
        trees = []
        for side in ("open", "write_text"):
            root = tmp_path / side
            root.mkdir()
            out = root / "out"
            if kind.startswith("mode"):
                out.write_text("old\n")
                out.chmod(int(kind[5:], 8))
            else:
                if kind == "symlink":
                    (root / "target").write_text("old\n")
                    (root / "target").chmod(0o640)
                out.symlink_to("target")
            if side == "open":
                with open(out, "w") as f:
                    f.write("new\n")
            else:
                seqio.write_text(["new\n"], str(out))
            trees.append({p.name: (stat.S_IMODE(p.lstat().st_mode),
                                   os.readlink(p) if p.is_symlink()
                                   else p.read_bytes())
                          for p in root.iterdir()})
        assert trees[0] == trees[1]
        assert b"new\n" in trees[1].get("target", trees[1]["out"])

    @pytest.mark.parametrize("target", [
        "file/x.jsonl", "file/sub/x.jsonl", "nodir/x.jsonl", "dir", "dir/",
        "new/", "file/", ""])
    def test_check_output_gives_the_errno_open_gives(self, tmp_path,
                                                     monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        (tmp_path / "dir").mkdir()
        with pytest.raises(OSError) as opened:
            open(target, "w")
        with pytest.raises(OSError) as checked:
            seqio.check_output(target)
        assert str(checked.value) == str(opened.value)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
