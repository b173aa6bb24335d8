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
    BoundingBox,
    CameraIntrinsics,
    Extrinsics,
    GeometryError,
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


def record_to_frame(rec: dict, path="<sequence>", line=0) -> FrameRecord:
    def fail(field, why):
        raise SchemaError(f"{path}:{line}: field '{field}': {why}")

    for field in ("frame_index", "timestamp", "detections"):
        if field not in rec:
            fail(field, "missing")
    detections = []
    for i, d in enumerate(rec["detections"]):
        if "box" not in d:
            fail(f"detections[{i}].box", "missing")
        box = d["box"]
        if len(box) != 4 or not all(isinstance(v, (int, float)) for v in box):
            fail(f"detections[{i}].box", "expected 4 numbers")
        try:
            bbox = BoundingBox(*[float(v) for v in box])
        except ValueError as e:
            fail(f"detections[{i}].box", str(e))
        desc = d.get("descriptor")
        desc = None if desc is None else np.asarray(desc, dtype=float)
        detections.append(Detection(bbox, desc, d.get("person_id")))
    pose = rec.get("robot_pose")
    if pose is not None:
        if len(pose) != 3:
            fail("robot_pose", "expected [x, y, theta]")
        pose = tuple(float(v) for v in pose)
    try:
        timestamp = float(rec["timestamp"])
    except (TypeError, ValueError):
        fail("timestamp", "expected a number")
    if not math.isfinite(timestamp):
        fail("timestamp", f"{timestamp} is not finite")
    gt = {int(pid): tuple(pos)
          for pid, pos in (rec.get("ground_truth") or {}).items()}
    return FrameRecord(int(rec["frame_index"]), timestamp, detections, pose, gt)


def read_sequence(path):
    frames = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {e}") from e
            if lineno == 1 and "format" in rec and "frame_index" not in rec:
                if rec["format"] != SEQUENCE_FORMAT:
                    raise SchemaError(
                        f"{path}:1: unsupported format '{rec['format']}'")
                continue
            frame = record_to_frame(rec, path, lineno)
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
    if value is None or value == "identity":
        return np.eye(3)
    if value == "forward":
        return FORWARD_CAMERA_ROTATION
    if isinstance(value, dict) and "rpy" in value:
        roll, pitch, yaw = (float(v) for v in value["rpy"])
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        return Rz @ Ry @ Rx
    try:
        vals = [float(v) for v in value]
    except (TypeError, ValueError):
        raise SchemaError(f"field '{field}': expected 9 numbers, rpy, "
                          "'identity' or 'forward'")
    if len(vals) != 9:
        raise SchemaError(f"field '{field}': expected 9 numbers (row-major)")
    return np.array(vals).reshape(3, 3)


def load_calibration(path):
    """Read a calibration YAML file into (CameraIntrinsics, Extrinsics)."""
    with open(path) as f:
        try:
            data = yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise SchemaError(f"{path}: invalid YAML: {e}") from e
    if not isinstance(data, dict) or "intrinsics" not in data:
        raise SchemaError(f"{path}: field 'intrinsics': missing")
    intr = data["intrinsics"]
    for field in ("f_x", "f_y", "c_x", "c_y", "image_width", "image_height"):
        if field not in intr:
            raise SchemaError(f"{path}: field 'intrinsics.{field}': missing")
    try:
        intrinsics = CameraIntrinsics(
            float(intr["f_x"]), float(intr["f_y"]),
            float(intr["c_x"]), float(intr["c_y"]),
            int(intr["image_width"]), int(intr["image_height"]))
    except GeometryError as e:
        raise SchemaError(f"{path}: intrinsics: {e}") from e

    extr = data.get("extrinsics") or {}
    try:
        extrinsics = Extrinsics(
            _parse_rotation(extr.get("r_world_robot"), "extrinsics.r_world_robot"),
            np.asarray(extr.get("t_world_robot", [0, 0, 0]), dtype=float),
            _parse_rotation(extr.get("r_robot_cam", "forward"),
                            "extrinsics.r_robot_cam"),
            np.asarray(extr.get("t_robot_cam", [0, 0, 0]), dtype=float))
    except GeometryError as e:
        raise SchemaError(f"{path}: extrinsics: {e}") from e
    return intrinsics, extrinsics


# ---------------------------------------------------------------------------
# Scenario files


def load_scenario(path) -> Scenario:
    with open(path) as f:
        try:
            data = yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise SchemaError(f"{path}: invalid YAML: {e}") from e
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a mapping at the top level")
    try:
        return scenario_from_dict(data)
    except (ScenarioError, KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"{path}: {e}") from e


def scenario_from_dict(data: dict) -> Scenario:
    peds = []
    for i, p in enumerate(data.get("pedestrians", [])):
        if "waypoints" not in p:
            raise ScenarioError(f"pedestrians[{i}].waypoints: missing")
        peds.append(Pedestrian(
            id=int(p["id"]),
            waypoints=[tuple(float(v) for v in w) for w in p["waypoints"]],
            radius=float(p.get("radius", 0.25)),
            height=float(p.get("height", 1.7)),
            cluster=int(p.get("cluster", 0)),
            phase_offset=float(p.get("phase_offset", 0.0))))
    robot = data.get("robot_path", [[0.0, 0.0, 0.0, 0.0]])
    intr = data.get("intrinsics")
    if intr is not None:
        intr = CameraIntrinsics(
            float(intr["f_x"]), float(intr["f_y"]),
            float(intr["c_x"]), float(intr["c_y"]),
            int(intr["image_width"]), int(intr["image_height"]))
    kwargs = {}
    if intr is not None:
        kwargs["intrinsics"] = intr
    scenario = Scenario(
        name=str(data.get("name", "unnamed")),
        pedestrians=peds,
        robot_path=RobotPath([tuple(float(v) for v in w) for w in robot]),
        duration=float(data["duration"]),
        frame_rate=float(data.get("frame_rate", 10.0)),
        box_pixel_std=float(data.get("box_pixel_std", 0.0)),
        descriptor_noise_std=float(data.get("descriptor_noise_std", 0.05)),
        viewpoint_amplitude=float(data.get("viewpoint_amplitude", 0.1)),
        similarity=float(data.get("similarity", 0.0)),
        descriptor_dim=int(data.get("descriptor_dim", 512)),
        occlusions=[OcclusionEvent(int(o["ped_id"]), float(o["t_start"]),
                                   float(o["t_end"]))
                    for o in data.get("occlusions", [])],
        drifts=[DriftEvent(int(d["ped_id"]), float(d["t_start"]),
                           float(d["t_end"]), int(d["toward_cluster"]),
                           float(d["amount"]), float(d.get("ramp", 2.0)))
                for d in data.get("drifts", [])],
        target_id=int(data.get("target_id", 0)),
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
