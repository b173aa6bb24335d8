"""Per-frame orchestration: track people, score appearances, decide the target.

The loop per frame is: update the multi-person tracker, score every
confirmed track with the appearance classifier (previous frame's weight
snapshot), advance the follower state machine, then, while a target is
trusted, harvest labeled samples and retrain the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, reid
from .geometry import CameraIntrinsics, Extrinsics, _check_rotation
from .reid import (
    FollowerMode,
    FollowerState,
    PassthroughExtractor,
    ReidConfig,
    RidgeClassifier,
    SampleSet,
)
from .tracker import DetectionSet, Tracker, TrackerConfig


@dataclass
class FrameResult:
    mode: str
    target_track_id: int | None
    target_box: object            # BoundingBox or None
    target_position: object       # world (x, y) or None
    tracks: list                  # (track_id, x, y, box or None)
    scores: dict                  # track_id -> appearance score


class FollowPipeline:
    """Stateful person-following estimator over a detection sequence. The
    camera mount (an Extrinsics' R_robot_cam and t_robot_cam, as
    seqio.load_calibration returns) is checked here once, not per frame."""

    def __init__(self, intr: CameraIntrinsics,
                 tracker_cfg: TrackerConfig | None = None,
                 reid_cfg: ReidConfig | None = None,
                 target_person_id: int = 0,
                 reid_enabled: bool = True,
                 seed: int = 0,
                 mount: Extrinsics | None = None):
        self.intr = intr
        self.tracker_cfg = tracker_cfg or TrackerConfig()
        self.reid_cfg = reid_cfg or ReidConfig()
        self.reid_enabled = reid_enabled
        self.target_person_id = target_person_id
        mount = mount or geometry.robot_pose_extrinsics(0, 0, 0)
        self.mount = (_check_rotation(mount.R_robot_cam, "R_robot_cam"),
                      mount.t_robot_cam)
        # Without a robot_pose the robot stays at the origin. The Tracker
        # refuses a mount whose H has rank < 2.
        self.tracker = Tracker(intr, geometry.robot_pose_extrinsics(
            0, 0, 0, *self.mount), self.tracker_cfg)
        self.extractor = PassthroughExtractor()
        self.sample_set = SampleSet(self.reid_cfg.capacity, self.reid_cfg.mode,
                                    rng=np.random.default_rng(seed))
        self.classifier = RidgeClassifier(lam=self.reid_cfg.lam)
        self.state = FollowerState()
        self._bootstrapped = False

    def process_frame(self, record) -> FrameResult:
        """record is a sim.FrameRecord (descriptors may be None when re-ID is off)."""
        if record.robot_pose is not None:
            x, y, theta = record.robot_pose
            self.tracker.set_extrinsics(
                geometry.robot_pose_extrinsics(x, y, theta, *self.mount))

        dets = DetectionSet([d.box for d in record.detections],
                            record.timestamp)
        _, matched = self.tracker.step(dets)
        associations = {tid: record.detections[k].box
                        for tid, k in matched.items()}
        if not self.reid_enabled:
            return self._result(None, associations, {})

        track_desc, track_person = {}, {}
        for tid, k in matched.items():
            det = record.detections[k]
            if det.descriptor is not None:
                track_desc[tid] = self.extractor.extract(det.descriptor)
                track_person[tid] = det.person_id

        scores = {}
        if self.classifier.trained:
            scores = {tid: reid.score(self.classifier, desc)
                      for tid, desc in track_desc.items()}

        target = None
        if not self._bootstrapped:
            target = self._try_bootstrap(track_person)
        elif self.classifier.trained:
            self.state, target = reid.step_state_machine(
                self.state, scores, list(track_desc.keys()), self.reid_cfg)
        else:
            # Classifier could not be trained yet (e.g. no negatives seen);
            # trust pure tracking of the designated target while it lasts.
            tid = self.state.target_track_id
            target = tid if tid in associations else None
            if target is None:
                self.state.mode = FollowerMode.RE_ID
                self.state.target_track_id = None

        if target is not None:
            self._learn(target, track_desc, record.frame_index, associations)
        return self._result(target, associations, scores)

    def _try_bootstrap(self, track_person):
        """Operator-style target designation by ground-truth person id."""
        for tid, pid in track_person.items():
            if pid == self.target_person_id:
                self.state.mode = FollowerMode.FOLLOWING
                self.state.target_track_id = tid
                self._bootstrapped = True
                return tid
        return None

    def _learn(self, target_tid, track_desc, frame_index, associations):
        order = self._negatives_by_image_distance(target_tid, associations)
        samples = reid.label_frame_samples(target_tid, track_desc, frame_index,
                                           negative_order=order)
        if samples:
            reid.update_samples(self.sample_set, samples)
            reid.train(self.classifier, self.sample_set)

    def _negatives_by_image_distance(self, target_tid, associations):
        cx, cy = associations[target_tid].center
        others = [(tid, box) for tid, box in associations.items()
                  if tid != target_tid]
        others.sort(key=lambda item: (
            (item[1].center[0] - cx) ** 2 + (item[1].center[1] - cy) ** 2,
            item[0]))
        return [tid for tid, _ in others]

    def _result(self, target, associations, scores):
        rows = []
        for t in self.tracker.confirmed_tracks():
            box = associations.get(t.id)
            rows.append((t.id, t.mean[0], t.mean[1], box))
        # A target is always a track matched this frame, so it has a row.
        target_box = target_pos = None
        for tid, x, y, box in rows:
            if tid == target:
                target_box, target_pos = box, (x, y)
        return FrameResult(
            mode=self.state.mode.value,
            target_track_id=target,
            target_box=target_box,
            target_position=target_pos,
            tracks=rows,
            scores=scores)
