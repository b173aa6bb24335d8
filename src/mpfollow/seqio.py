"""File formats: sequences, track output, calibration and scenario files.

Sequences are line-delimited JSON, one frame per line; calibration and
scenario files are YAML. Every mapping of either, a sequence line or one
of its detections as much as a scenario, is read by one reader: a table
of its keys, each with the kind that reads its value.
"""

from __future__ import annotations

import errno
import inspect
import json
import math
import os
import re
from itertools import chain, count

import numpy as np
import yaml

from .geometry import (
    FORWARD_CAMERA_ROTATION,
    MAX_MAGNITUDE as _LIMIT,
    MIN_BOX_WIDTH,
    BoundingBox,
    CameraIntrinsics,
    GeometryError,
    check_mount,
    robot_pose_extrinsics,
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


def check_output(path):
    """Refuse, creating nothing, an output path that open() could not create
    or that is a directory, with open()'s errno; the OSError names path."""
    try:
        if os.path.isdir(path) or not os.path.basename(path):  # "", "x/"
            code = errno.EISDIR if path else errno.ENOENT
            raise OSError(code, os.strerror(code))
        os.stat(os.path.join(os.path.dirname(path) or os.curdir, ""))
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from None


def write_text(chunks, path):
    """Write text chunks to path as they come, as open(path, "w") would but
    for hard links, through a temporary file that then replaces the file
    path names (a symbolic link's target), with its permission bits if it
    exists; an OSError names path, and no temporary file is left."""
    tmp = None
    try:
        real = os.path.realpath(path)
        name = os.path.join(os.path.dirname(real), ".tmp-" + os.urandom(8).hex())
        with open(name, "x") as f:
            tmp = name
            if os.path.exists(real):
                os.chmod(tmp, os.stat(real).st_mode & 0o777)
            f.writelines(chunks)
        os.replace(tmp, real)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    finally:
        if tmp and os.path.exists(tmp):  # os.replace moved it on success
            os.unlink(tmp)


# ---------------------------------------------------------------------------
# The reader: each mapping read by its table


def _fail(field, why):
    raise SchemaError(f"field '{field}': {why}" if field else why)


_NUMBER = frozenset((int, float))  # true/false load as bool, not a number


def _numbers(values, size):
    """values as floats if they are a list of size numbers within ±_LIMIT."""
    if (type(values) is list and len(values) == size
            and _NUMBER.issuperset(map(type, values))
            and all(map(_LIMIT.__ge__, map(abs, values)))):  # NaN too
        return list(map(float, values))
    return None


# A kind reads one value of a mapping: kind(value, field) is the value to
# build with, or SchemaError naming field.

def _number(value, field):
    return (_numbers([value], 1)
            or _fail(field, f"expected a number within ±{_LIMIT:g}"))[0]


def _integer(value, field):
    return value if type(value) is int else _fail(field, "expected an integer")


def _text(value, field):
    return value if type(value) is str else _fail(field, "expected text")


def _row(*names):
    """The kind of one [names...] list of numbers, as a tuple of floats."""
    why = f"expected [{', '.join(names)}], numbers within ±{_LIMIT:g}"
    return lambda value, field: tuple(_numbers(value, len(names))
                                      or _fail(field, why))


def _list(kind, build=list):
    """The kind of a list of values that kind reads, as build(list)."""
    def read(value, field):
        if type(value) is not list:
            _fail(field, "expected a list")
        return build([kind(v, f"{field}[{i}]") for i, v in enumerate(value)])
    return read


class _Table:
    """The keys of one mapping, each with the kind that reads its value, and
    build, called with the values read as keywords. defaults holds, in file
    terms, values for keys that build needs and a file may leave out; a key
    that build has no default for and defaults lacks is required."""

    def __init__(self, build, kinds, defaults=None):
        self.build, self.kinds, self.defaults = build, kinds, defaults or {}
        params = inspect.signature(build).parameters.values()
        self.required = [p.name for p in params if p.default is p.empty
                         and p.name not in self.defaults]
        # null is the key left out where nothing else can be meant: an
        # optional mapping, or a key whose absence build reads as None.
        self.nullable = {p.name for p in params if p.default is None} | {
            k for k, kind in kinds.items()
            if isinstance(kind, _Table) and k not in self.required}

    def __call__(self, data, field=""):
        """build(**values read from data); SchemaError names the first
        unknown key, missing key or bad value."""
        if type(data) is not dict:
            _fail(field, "expected a mapping")
        data = {k: v for k, v in data.items()
                if v is not None or k not in self.nullable}
        prefix = f"{field}." if field else ""
        for key in data:
            if key not in self.kinds:
                _fail(prefix + key, "unknown key (expected one of "
                      f"{', '.join(self.kinds)})")
        for key in self.required:
            if key not in data:
                _fail(prefix + key, "missing")
        values = {key: self.kinds[key](value, prefix + key) for key, value in
                  (self.defaults | data).items()}
        try:
            return self.build(**values)
        except GeometryError as e:  # CameraIntrinsics checks its values
            _fail(field, e)


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


def write_jsonl(rows, path):
    """Write rows as JSON lines, each as it is dumped, and return how many
    there were; no rows write one empty line."""
    n = count()  # zip draws each row before its number: n counts the rows
    lines = (json.dumps(row) + "\n" for row, _ in zip(rows, n))
    write_text(chain([next(lines, "\n")], lines), path)
    return next(n)


def write_sequence(frames, path):
    """The header, then one line per frame, each dumped and written as it
    comes, so the frames' records and text are never all held at once."""
    write_jsonl(chain([{"format": SEQUENCE_FORMAT}],
                      map(frame_to_record, frames)), path)


def _box(value, field):
    """A box of 4 numbers, at least MIN_BOX_WIDTH wide, with v_br > v_tl."""
    u_tl, v_tl, u_br, v_br = _numbers(value, 4) or _fail(
        field, f"expected 4 numbers within ±{_LIMIT:g}")
    # Corners are written to 6 decimals, which can narrow a box by 1e-6 px.
    if not (u_br - u_tl >= MIN_BOX_WIDTH - 2e-6 and v_br > v_tl):
        _fail(field, f"under {MIN_BOX_WIDTH:g} px wide or v_br <= v_tl")
    return BoundingBox(u_tl, v_tl, u_br, v_br)


def _ground_truth(value, field):
    """[x, y] positions by integer id, written as text such as "0" or "-1"."""
    if type(value) is not dict:
        _fail(field, "expected a mapping")
    positions = {}
    for pid, pos in value.items():
        xy = pid.removeprefix("-").isdecimal() and _numbers(pos, 2)
        positions[int(pid)] = tuple(xy or _fail(
            f"{field}.{pid}", f"expected int id: [x, y] within ±{_LIMIT:g}"))
    return positions


def _frame(frame_index, timestamp, detections, robot_pose=None,
           ground_truth=None):
    return FrameRecord(frame_index, timestamp, detections, robot_pose,
                       ground_truth or {})


def _frame_table():
    """The table of a sequence line; its descriptors keep the first's length."""
    size = None

    def descriptor(value, field):
        """A flat list of numbers with 0 < norm < inf, as a float array."""
        nonlocal size
        try:  # an OverflowError for an integer beyond float's range
            d = (np.fromiter(value, float, len(value)) if type(value) is list
                 and _NUMBER.issuperset(map(type, value)) else None)
        except OverflowError:
            d = None
        if d is None or size not in (None, d.size) or not 0 < d @ d < math.inf:
            _fail(field, "expected a flat list of numbers, as long as the "
                  "sequence's first, with 0 < norm < inf")
        size = d.size
        return d

    detection = _Table(Detection, {
        "box": _box, "descriptor": descriptor, "person_id": _integer})
    return _Table(_frame, {
        "frame_index": _integer, "timestamp": _number,
        "detections": _list(detection), "robot_pose": _row("x", "y", "theta"),
        "ground_truth": _ground_truth})


def _format(value, field):
    if value != SEQUENCE_FORMAT:
        _fail(field, f"unsupported format '{value}'")


_HEADER = _Table(lambda format: None, {"format": _format})


def read_sequence(path):
    """The frames of a sequence file; SchemaError names file, line and field."""
    frames, read = [], _frame_table()
    with open(path, "rb") as f, np.errstate(over="ignore"):  # norms refuse it
        for lineno, line in enumerate(f, start=1):
            if line.isspace():
                continue
            try:
                rec = json.loads(line.decode())  # UnicodeDecodeError too
            except (ValueError, RecursionError) as e:
                raise SchemaError(f"{path}:{lineno}: invalid JSON: {e}") from e
            try:
                if lineno == 1 and type(rec) is dict and "format" in rec:
                    _HEADER(rec)
                    continue
                frame = read(rec)
                if frames and not frame.timestamp > frames[-1].timestamp:
                    _fail("timestamp", f"{frame.timestamp} is not after the "
                          f"previous frame's {frames[-1].timestamp}")
            except SchemaError as e:
                raise SchemaError(f"{path}:{lineno}: {e}") from e
            frames.append(frame)
    if not frames:
        raise SchemaError(f"{path}: no frames")
    return frames


# ---------------------------------------------------------------------------
# YAML files: calibrations and scenarios


class _Loader(yaml.SafeLoader):
    """YAML 1.1, which reads a float only with a dot and a signed exponent,
    but with 1e-5, 1e5 and 1E+3 read as numbers, as in YAML 1.2 and JSON."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _parse_rotation(value, field):
    """A mount rotation: 'forward', {rpy: [3 numbers]} or 9 numbers
    (row-major), checked by geometry.check_mount: a rotation whose camera
    x and z axes span the ground plane."""
    if value == "forward":
        return FORWARD_CAMERA_ROTATION
    if type(value) is dict:
        roll, pitch, yaw = _RPY(value, field)
        cr, sr = math.cos(roll), math.sin(roll)
        cp, sp = math.cos(pitch), math.sin(pitch)
        cy, sy = math.cos(yaw), math.sin(yaw)
        Rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
        Ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
        Rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
        R = Rz @ Ry @ Rx
    else:
        R = np.array(_numbers(value, 9) or _fail(
            field, "expected 9 numbers (row-major), {rpy: [3 numbers]} "
            "or 'forward'")).reshape(3, 3)
    try:
        return check_mount(R, f"field '{field}': the rotation")
    except GeometryError as e:
        raise SchemaError(str(e)) from e


def _mount(r_robot_cam=FORWARD_CAMERA_ROTATION, t_robot_cam=(0.0, 0.0, 0.0)):
    return robot_pose_extrinsics(0, 0, 0, r_robot_cam, t_robot_cam)


_INTRINSICS = _Table(CameraIntrinsics, {
    "f_x": _number, "f_y": _number, "c_x": _number, "c_y": _number,
    "image_width": _integer, "image_height": _integer})
_RPY = _Table(lambda rpy: rpy, {"rpy": _row("roll", "pitch", "yaw")})
_CALIBRATION = _Table(
    lambda intrinsics, extrinsics: (intrinsics, extrinsics),
    {"intrinsics": _INTRINSICS,
     "extrinsics": _Table(_mount, {"r_robot_cam": _parse_rotation,
                                   "t_robot_cam": _row("x", "y", "z")})},
    defaults={"extrinsics": {}})

_PEDESTRIAN = _Table(Pedestrian, {
    "id": _integer, "waypoints": _list(_row("t", "x", "y")), "radius": _number,
    "height": _number, "cluster": _integer, "phase_offset": _number})
_OCCLUSION = _Table(OcclusionEvent, {
    "ped_id": _integer, "t_start": _number, "t_end": _number})
_DRIFT = _Table(DriftEvent, {
    "ped_id": _integer, "t_start": _number, "t_end": _number,
    "toward_cluster": _integer, "amount": _number, "ramp": _number})
_SCENARIO = _Table(Scenario, {
    "name": _text, "pedestrians": _list(_PEDESTRIAN),
    "robot_path": _list(_row("t", "x", "y", "theta"), RobotPath),
    "duration": _number, "frame_rate": _number, "intrinsics": _INTRINSICS,
    "box_pixel_std": _number, "descriptor_noise_std": _number,
    "viewpoint_amplitude": _number, "similarity": _number,
    "descriptor_dim": _integer, "occlusions": _list(_OCCLUSION),
    "drifts": _list(_DRIFT), "target_id": _integer},
    defaults={"name": "unnamed", "robot_path": [[0.0, 0.0, 0.0, 0.0]]})


def _load(path, read):
    """read(the data of the YAML file at path); its errors name the path."""
    with open(path, "rb") as f:  # PyYAML decodes, and refuses bad UTF-8
        try:
            data = yaml.load(f, _Loader)
        except (yaml.YAMLError, RecursionError) as e:  # too deeply nested
            raise SchemaError(f"{path}: invalid YAML: {e}") from e
    try:
        return read(data)
    except (SchemaError, ScenarioError) as e:
        raise SchemaError(f"{path}: {e}") from e


def load_calibration(path):
    """Read a calibration YAML file into (CameraIntrinsics, the camera mount
    as the Extrinsics of a robot at the origin): each sequence frame's
    robot_pose owns the robot pose, so a calibration holds only the mount."""
    return _load(path, _CALIBRATION)


def load_scenario(path) -> Scenario:
    """Read a scenario YAML file: its keys checked by their tables, then its
    values' ranges by Scenario.validate."""
    return _load(path, lambda data: _SCENARIO(data).validate())
