"""Output checks, computed apart from the program under test.

Every check here takes plain values (the frames the simulator made, what
the pipeline reported) and recomputes the expected answer itself: from
simulator ground truth, or by an independent solve. None compares with a
stored copy of an earlier output. Each returns a list of problems, empty
when the output passes, so that a run can report them all.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

HIT_RADIUS_PX = 50.0
RIDGE_TOL = 1e-8


# ---------------------------------------------------------------------------
# Per frame


def frame_problems(mode, target, scores, target_allowed):
    """The target is reported only while FOLLOWING; scores lie in [0, 1]."""
    problems = []
    if target is not None and mode != "FOLLOWING":
        problems.append(f"target {target} reported in mode {mode}")
    if target is not None and not target_allowed:
        problems.append(f"target {target} reported with re-ID off")
    bad = {tid: s for tid, s in scores.items() if not 0.0 <= s <= 1.0}
    if bad:
        problems.append(f"scores outside [0, 1]: {bad}")
    return problems


def ridge_solution(X, y, lam):
    """Ridge fit with an unregularised bias, as one stacked least-squares system.

    Minimises |X w + b - y|^2 + lam |w|^2 by solving
    [[X, 1], [sqrt(lam) I, 0]] [w; b] = [y; 0] in the least-squares sense,
    which needs neither the normal equations nor the dual form.
    """
    n, d = X.shape
    A = np.zeros((n + d, d + 1))
    A[:n, :d] = X
    A[:n, d] = 1.0
    A[n:, :d] = math.sqrt(lam) * np.eye(d)
    rhs = np.concatenate([np.asarray(y, dtype=float), np.zeros(d)])
    theta, *_ = np.linalg.lstsq(A, rhs, rcond=None)
    return theta[:d], float(theta[d])


def ridge_problems(samples, lam, w, b, tol=RIDGE_TOL):
    """(w, b) must match an independent ridge solve over the same samples."""
    X = np.stack([np.asarray(s.descriptor, dtype=float) for s in samples])
    y = np.array([float(s.label) for s in samples])
    w_ref, b_ref = ridge_solution(X, y, lam)
    err = max(float(np.max(np.abs(np.asarray(w) - w_ref))), abs(b - b_ref))
    if not err <= tol:
        return [f"ridge fit over {len(samples)} samples differs from the "
                f"stacked least-squares solve by {err:.3g} (tolerance {tol:g})"]
    return []


# ---------------------------------------------------------------------------
# Per pass


def box_center(box):
    return ((box.u_tl + box.u_br) / 2.0, (box.v_tl + box.v_br) / 2.0)


def true_box_center(record, person_id):
    """Centre of the simulator's box for a person, or None when not detected."""
    for det in record.detections:
        if det.person_id == person_id:
            return box_center(det.box)
    return None


def hit_counts(records, reported_centers, person_id, radius=HIT_RADIUS_PX):
    """(hits, frames) of precision at ``radius`` px against ground truth.

    A frame counts when the true target is detected in it; it is a hit when
    the reported target box centre lies within ``radius`` px of the true
    target's box centre.
    """
    hits = frames = 0
    for record, center in zip(records, reported_centers):
        truth = true_box_center(record, person_id)
        if truth is None:
            continue
        frames += 1
        if center is not None and math.hypot(center[0] - truth[0],
                                             center[1] - truth[1]) <= radius:
            hits += 1
    return hits, frames


def box_key(box):
    return (box.u_tl, box.v_tl, box.u_br, box.v_br)


def range_terms(record, rows, intr, r_body, pixel_std):
    """Range errors of matched confirmed tracks, and their width-model budget.

    For each track row matched to a box this frame, the error is the
    difference between the track's range from the robot and the true range
    of the person the simulator drew that box for. The budget is what the
    width model alone explains for that person: a card of width r seen at
    range rho and bearing alpha projects to f r / (rho cos^2 alpha) pixels,
    so its width-based range is rho cos alpha (bias rho (1 - cos alpha));
    a width error of dw pixels moves the range by rho^2 dw / (f r), and the
    budget allows two standard deviations of it for box-edge noise of
    ``pixel_std`` px on each side.

    Returns (errors, budgets), one entry per matched row.
    """
    rx, ry, heading = record.robot_pose
    person_of = {box_key(d.box): d.person_id for d in record.detections}
    sigma_w = math.sqrt(2.0) * pixel_std
    errors, budgets = [], []
    for _, x, y, box in rows:
        if box is None:
            continue
        pid = person_of.get(box_key(box))
        if pid is None:
            continue
        px, py = record.pedestrian_positions[pid]
        rho = math.hypot(px - rx, py - ry)
        errors.append(abs(math.hypot(x - rx, y - ry) - rho))
        alpha = math.atan2(py - ry, px - rx) - heading
        budgets.append(rho * (1.0 - math.cos(alpha))
                       + 2.0 * rho * rho * sigma_w / (intr.f_x * r_body))
    return errors, budgets


def frame_digest(outputs):
    """Digest of the (mode, target, track rows) sequence of one pass.

    ``outputs`` holds (mode, target, rows) per frame, rows as
    (track id, x, y, box key or None). Floats enter bit for bit.
    """
    h = hashlib.sha256()
    for mode, target, rows in outputs:
        h.update(f"{mode}|{target}|".encode())
        for tid, x, y, key in rows:
            h.update(struct.pack("<qdd", tid, x, y))
            h.update(b"-" if key is None else struct.pack("<4d", *key))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Sequence files

# Rounding of mpfollow-seq-1 (seqio.frame_to_record): a value rounded to k
# decimals is within half a unit of the k-th decimal, plus float slack.
_ROUNDING = {"timestamp": 9, "robot_pose": 9, "box": 6, "descriptor": 7,
             "ground_truth": 9}


def _within(name, a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    tol = 0.5 * 10.0 ** -_ROUNDING[name] + 1e-12 * (1.0 + np.abs(a))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def sequence_problems(generated, read_back):
    """Frames read back by seqio must equal the generated ones within rounding."""
    if len(generated) != len(read_back):
        return [f"{len(read_back)} frames read back, {len(generated)} written"]
    problems = []
    for g, r in zip(generated, read_back):
        where = f"frame {g.frame_index}"
        if r.frame_index != g.frame_index:
            problems.append(f"{where}: read back as frame {r.frame_index}")
        if not _within("timestamp", g.timestamp, r.timestamp):
            problems.append(f"{where}: timestamp")
        if r.robot_pose is None or not _within("robot_pose", g.robot_pose, r.robot_pose):
            problems.append(f"{where}: robot_pose")
        if len(r.detections) != len(g.detections):
            problems.append(f"{where}: detection count")
            continue
        for k, (gd, rd) in enumerate(zip(g.detections, r.detections)):
            if rd.person_id != gd.person_id:
                problems.append(f"{where}: detections[{k}].person_id")
            if not _within("box", box_key(gd.box), box_key(rd.box)):
                problems.append(f"{where}: detections[{k}].box")
            if rd.descriptor is None or not _within("descriptor", gd.descriptor,
                                                    rd.descriptor):
                problems.append(f"{where}: detections[{k}].descriptor")
        if set(r.pedestrian_positions) != set(g.pedestrian_positions) or not all(
                _within("ground_truth", g.pedestrian_positions[p],
                        r.pedestrian_positions[p]) for p in g.pedestrian_positions):
            problems.append(f"{where}: ground_truth")
    return problems
