"""File formats: sequences, track output, calibration and scenario files.

Sequences are line-delimited JSON, one frame per line; calibration and
scenario files are YAML. All schemas carry a format version so generated
and externally supplied data stay interchangeable.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np
import yaml

from .geometry import (
    FORWARD_CAMERA_ROTATION,
    MIN_BOX_WIDTH,
    BoundingBox,
    CameraIntrinsics,
    _check_rotation,
    build_observation_model,
    robot_pose_extrinsics,
    spanning_block,
)
from .sim import (
    Detection,
    DriftEvent,
    FrameRecord,
    OcclusionEvent,
    Pedestrian,
    RobotPath,
    Scenario,
    ScenarioError,
)

SEQUENCE_FORMAT = "mpfollow-seq-1"


class SchemaError(ValueError):
    """Malformed input file; message carries file/line/field context."""


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Sequence files


def frame_to_record(frame: FrameRecord) -> dict:
    return {
        "frame_index": frame.frame_index,
        "timestamp": round(frame.timestamp, 9),
        "robot_pose": [round(v, 9) for v in frame.robot_pose],
        "detections": [
            {
                "box": [round(v, 6) for v in det.box.as_array().tolist()],
                "descriptor": [round(float(v), 7) for v in det.descriptor],
                "person_id": det.person_id,
            }
            for det in frame.detections
        ],
        "ground_truth": {str(pid): [round(v, 9) for v in pos]
                         for pid, pos in frame.pedestrian_positions.items()},
    }


def write_sequence(frames, path):
    lines = [json.dumps({"format": SEQUENCE_FORMAT})]
    lines.extend(json.dumps(frame_to_record(f)) for f in frames)
    _atomic_write(path, "\n".join(lines) + "\n")


_LIMIT = 1e50  # beyond physical values; the frame loop's squares stay finite
_NUMBER = frozenset((int, float))  # JSON true/false load as bool, not a number


def _numbers(values, size):
    """values as floats if they are a list of size numbers within ±_LIMIT."""
    if (type(values) is list and len(values) == size
            and _NUMBER.issuperset(map(type, values))
            and all(map(_LIMIT.__ge__, map(abs, values)))):  # NaN too
        return list(map(float, values))
    return None


def _descriptor(values, size):
    """values as an array if a flat list of (size) numbers with 0 < norm < inf."""
    try:
        sum(values)  # a TypeError unless values holds only numbers
        d = np.fromiter(values, float, len(values))
    except (TypeError, OverflowError):
        return None
    return d if size in (None, d.size) and 0 < d @ d < math.inf else None


def record_to_frame(rec, path="<sequence>", line=0, descriptor_size=None):
    """One sequence line as a FrameRecord, and the descriptor length later
    lines must keep; SchemaError names the first bad value."""
    def fail(field, why):
        raise SchemaError(f"{path}:{line}: field '{field}': {why}")

    if type(rec) is not dict:
        raise SchemaError(f"{path}:{line}: expected a JSON object")
    if type(rec.get("frame_index")) is not int:
        fail("frame_index", "expected an integer")
    timestamp = (_numbers([rec.get("timestamp")], 1) or fail(
        "timestamp", f"expected a number within ±{_LIMIT:g}"))[0]
    if type(rec.get("detections")) is not list:
        fail("detections", "expected a list")
    detections = []
    for i, d in enumerate(rec["detections"]):
        field = f"detections[{i}]"
        if type(d) is not dict:
            fail(field, "expected an object")
        box = (_numbers(d.get("box"), 4) or fail(
            f"{field}.box", f"expected 4 numbers within ±{_LIMIT:g}"))
        # Corners are written to 6 decimals, which can narrow a box by 1e-6 px.
        if not (box[2] - box[0] >= MIN_BOX_WIDTH - 2e-6 and box[3] > box[1]):
            fail(f"{field}.box", f"under {MIN_BOX_WIDTH:g} px wide or v_br <= v_tl")
        desc = d.get("descriptor")
        if desc is not None:
            desc = _descriptor(desc, descriptor_size)
            if desc is None:
                fail(f"{field}.descriptor", "expected a flat list of numbers, "
                     "as long as the sequence's first, with 0 < norm < inf")
            descriptor_size = desc.size
        if type(d.get("person_id")) not in (int, type(None)):
            fail(f"{field}.person_id", "expected an integer or null")
        detections.append(Detection(BoundingBox(*box), desc, d.get("person_id")))
    pose = rec.get("robot_pose")
    if pose is not None:
        pose = tuple(_numbers(pose, 3) or fail(
            "robot_pose", f"expected [x, y, theta] within ±{_LIMIT:g}"))
    gt = rec.get("ground_truth")
    if type(gt) not in (dict, type(None)):
        fail("ground_truth", "expected an object")
    positions = {}
    for pid, pos in (gt or {}).items():
        xy = pid.removeprefix("-").isdecimal() and _numbers(pos, 2)
        positions[int(pid)] = tuple(xy or fail(
            f"ground_truth.{pid}", f"expected int id: [x, y] within ±{_LIMIT:g}"))
    return (FrameRecord(rec["frame_index"], timestamp, detections, pose,
                        positions), descriptor_size)


def read_sequence(path):
    frames, size = [], None
    with open(path) as f, np.errstate(over="ignore"):  # _descriptor refuses overflow
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if (lineno == 1 and type(rec) is dict and "format" in rec
                    and "frame_index" not in rec):
                if rec["format"] != SEQUENCE_FORMAT:
                    raise SchemaError(
                        f"{path}:1: unsupported format '{rec['format']}'")
                continue
            frame, size = record_to_frame(rec, path, lineno, size)
            if frames and not frame.timestamp > frames[-1].timestamp:
                raise SchemaError(
                    f"{path}:{lineno}: field 'timestamp': {frame.timestamp} "
                    f"is not after the previous frame's {frames[-1].timestamp}")
            frames.append(frame)
    if not frames:
        raise SchemaError(f"{path}: no frames")
    return frames


def write_tracks(rows, path):
    """rows: iterable of dicts with frame_index, track_id, x, y, box."""
    lines = [json.dumps(r) for r in rows]
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Calibration files


def _parse_rotation(value, field):
    """A calibration rotation; one given by numbers must be a rotation matrix."""
    if value == "forward":
        return FORWARD_CAMERA_ROTATION
    rpy = _numbers(value.get("rpy"), 3) if isinstance(value, dict) else None
    if rpy is not None:
        roll, pitch, yaw = rpy
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        return _check_rotation(Rz @ Ry @ Rx, field)
    vals = _numbers(value, 9)
    if vals is None:
        raise SchemaError(f"field '{field}': expected 9 numbers (row-major), "
                          "{rpy: [3 numbers]} or 'forward'")
    return _check_rotation(np.array(vals).reshape(3, 3), field)


def _read_yaml(path):
    with open(path) as f:
        try:
            return yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise SchemaError(f"{path}: invalid YAML: {e}") from e


def _parse_intrinsics(intr) -> CameraIntrinsics:
    """The 'intrinsics' mapping of a calibration or scenario file."""
    fields = ("f_x", "f_y", "c_x", "c_y", "image_width", "image_height")
    for field in fields:
        if field not in intr:
            raise SchemaError(f"field 'intrinsics.{field}': missing")
    for field in fields[:4]:
        if _numbers([intr[field]], 1) is None:
            raise SchemaError(f"field 'intrinsics.{field}': expected a number "
                              f"within ±{_LIMIT:g}")
    for field in fields[4:]:
        if type(intr[field]) is not int:
            raise SchemaError(f"field 'intrinsics.{field}': expected an integer")
    try:
        return CameraIntrinsics(*(float(intr[field]) for field in fields[:4]),
                                intr["image_width"], intr["image_height"])
    except ValueError as e:  # GeometryError
        raise SchemaError(f"intrinsics: {e}") from e


def load_calibration(path):
    """Read a calibration YAML file into (CameraIntrinsics, the camera mount
    as the Extrinsics of a robot at the origin): each sequence frame's
    robot_pose owns the robot pose, so a calibration holds only the mount."""
    data = _read_yaml(path)
    if not isinstance(data, dict) or not isinstance(data.get("intrinsics"), dict):
        raise SchemaError(f"{path}: field 'intrinsics': missing or not a mapping")
    try:
        intrinsics = _parse_intrinsics(data["intrinsics"])
    except SchemaError as e:
        raise SchemaError(f"{path}: {e}") from e

    extr = data.get("extrinsics") or {}
    try:
        if not isinstance(extr, dict):
            raise SchemaError("expected a mapping")
        for key in extr:
            if key not in ("r_robot_cam", "t_robot_cam"):
                raise SchemaError(f"field 'extrinsics.{key}': not a camera "
                                  "mount field (r_robot_cam, t_robot_cam)")
        R = _parse_rotation(extr.get("r_robot_cam", "forward"),
                            "extrinsics.r_robot_cam")
        t = _numbers(extr.get("t_robot_cam", [0, 0, 0]), 3)
        if t is None:
            raise SchemaError("field 'extrinsics.t_robot_cam': expected 3 "
                              f"numbers within ±{_LIMIT:g}")
        mount = robot_pose_extrinsics(0, 0, 0, R, t)
        spanning_block(build_observation_model(mount),
                       "field 'extrinsics.r_robot_cam'")
    except ValueError as e:  # SchemaError, GeometryError too
        raise SchemaError(f"{path}: extrinsics: {e}") from e
    return intrinsics, mount


# ---------------------------------------------------------------------------
# Scenario files


def load_scenario(path) -> Scenario:
    data = _read_yaml(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a mapping at the top level")
    try:
        return scenario_from_dict(data)
    except (ScenarioError, KeyError, TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{path}: {e}") from e


def _present(data, types):
    """The keys of data named in types, each converted by its type; a key
    the file leaves out keeps the default of the class it is passed to."""
    return {key: convert(data[key]) for key, convert in types.items()
            if key in data}


def scenario_from_dict(data: dict) -> Scenario:
    peds = []
    for i, p in enumerate(data.get("pedestrians", [])):
        if "waypoints" not in p:
            raise ScenarioError(f"pedestrians[{i}].waypoints: missing")
        peds.append(Pedestrian(
            id=int(p["id"]),
            waypoints=[tuple(float(v) for v in w) for w in p["waypoints"]],
            **_present(p, {"radius": float, "height": float, "cluster": int,
                           "phase_offset": float})))
    robot = data.get("robot_path", [[0.0, 0.0, 0.0, 0.0]])
    kwargs = _present(data, {
        "frame_rate": float, "box_pixel_std": float,
        "descriptor_noise_std": float, "viewpoint_amplitude": float,
        "similarity": float, "descriptor_dim": int, "target_id": int})
    if data.get("intrinsics") is not None:
        kwargs["intrinsics"] = _parse_intrinsics(data["intrinsics"])
    scenario = Scenario(
        name=str(data.get("name", "unnamed")),
        pedestrians=peds,
        robot_path=RobotPath([tuple(float(v) for v in w) for w in robot]),
        duration=float(data["duration"]),
        occlusions=[OcclusionEvent(int(o["ped_id"]), float(o["t_start"]),
                                   float(o["t_end"]))
                    for o in data.get("occlusions", [])],
        drifts=[DriftEvent(int(d["ped_id"]), float(d["t_start"]),
                           float(d["t_end"]), int(d["toward_cluster"]),
                           float(d["amount"]), **_present(d, {"ramp": float}))
                for d in data.get("drifts", [])],
        **kwargs)
    scenario.validate()
    return scenario


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "name": s.name,
        "duration": s.duration,
        "frame_rate": s.frame_rate,
        "similarity": s.similarity,
        "box_pixel_std": s.box_pixel_std,
        "descriptor_noise_std": s.descriptor_noise_std,
        "viewpoint_amplitude": s.viewpoint_amplitude,
        "descriptor_dim": s.descriptor_dim,
        "target_id": s.target_id,
        "pedestrians": [
            {"id": p.id, "cluster": p.cluster, "radius": p.radius,
             "height": p.height, "phase_offset": p.phase_offset,
             "waypoints": [list(w) for w in p.waypoints]}
            for p in s.pedestrians],
        "robot_path": [list(w) for w in s.robot_path.waypoints],
        "occlusions": [{"ped_id": o.ped_id, "t_start": o.t_start,
                        "t_end": o.t_end} for o in s.occlusions],
        "drifts": [{"ped_id": d.ped_id, "t_start": d.t_start, "t_end": d.t_end,
                    "toward_cluster": d.toward_cluster, "amount": d.amount,
                    "ramp": d.ramp} for d in s.drifts],
    }
