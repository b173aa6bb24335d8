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
from .geometry import CameraIntrinsics, Extrinsics
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
    mode: str | None              # None: re-ID off, so no follower
    target_track_id: int | None
    target_box: object            # BoundingBox or None
    target_position: object       # world (x, y) or None
    tracks: list                  # (track_id, x, y, box or None)
    scores: dict                  # track_id -> appearance score


class FollowPipeline:
    """Stateful person-following estimator over a detection sequence. The
    camera mount (an Extrinsics' R_robot_cam and t_robot_cam, as
    seqio.load_calibration returns) is checked once, by the Tracker."""

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
        # Without a robot_pose the robot stays at the origin.
        mount = mount or geometry.robot_pose_extrinsics(0, 0, 0)
        self.tracker = Tracker(intr, geometry.robot_pose_extrinsics(
            0, 0, 0, mount.R_robot_cam, mount.t_robot_cam), self.tracker_cfg)
        self.extractor = PassthroughExtractor()
        self.sample_set = SampleSet(self.reid_cfg.capacity, self.reid_cfg.mode,
                                    rng=np.random.default_rng(seed))
        self.classifier = RidgeClassifier(lam=self.reid_cfg.lam)
        self.state = FollowerState()

    def process_frame(self, record) -> FrameResult:
        """record is a sim.FrameRecord; any detection's descriptor may be
        None, with re-ID on or off."""
        if record.robot_pose is not None:
            self.tracker.set_pose(*record.robot_pose)

        dets = DetectionSet([d.box for d in record.detections],
                            record.timestamp)
        _, matched = self.tracker.step(dets)
        seen = {tid: record.detections[k] for tid, k in matched.items()}
        if not self.reid_enabled:
            return self._result(None, seen, {})

        track_desc = {tid: self.extractor.extract(det.descriptor)
                      for tid, det in seen.items()
                      if det.descriptor is not None}
        scores = {}
        if self.classifier.trained:
            scores = {tid: reid.score(self.classifier, desc)
                      for tid, desc in track_desc.items()}
            self.state, target = reid.step_state_machine(
                self.state, scores, list(track_desc), self.reid_cfg)
        else:
            target = self._designated(seen, track_desc)

        if target is not None:
            self._learn(target, track_desc, record.frame_index, seen)
        return self._result(target, seen, scores)

    def _designated(self, seen, track_desc):
        """The target before the first fit: until a sample is kept, the
        target person's first track matched with a descriptor (designation
        by ground-truth id; its frame's _learn keeps a sample), then that
        track on every frame where it is matched; on the others RE_ID,
        with no target. The state keeps the designated track's id."""
        tid = self.state.target_track_id if len(self.sample_set) else next(
            (t for t in track_desc
             if seen[t].person_id == self.target_person_id), None)
        target = tid if tid in seen else None
        self.state.mode = (FollowerMode.RE_ID if target is None
                           else FollowerMode.FOLLOWING)
        self.state.target_track_id = tid
        return target

    def _learn(self, target_tid, track_desc, frame_index, seen):
        # Negatives are taken nearest the target in the image first.
        cx, cy = seen[target_tid].box.center

        def distance(tid):
            u, v = seen[tid].box.center
            return (u - cx) ** 2 + (v - cy) ** 2, tid
        samples = reid.label_frame_samples(
            target_tid, track_desc, frame_index,
            negative_order=sorted(seen, key=distance))
        if samples:
            reid.update_samples(self.sample_set, samples)
            reid.train(self.classifier, self.sample_set)

    def _result(self, target, seen, scores):
        # A target is always a track matched this frame, so it has a row.
        rows, target_box, target_pos = [], None, None
        for t in self.tracker.confirmed_tracks():
            box = seen[t.id].box if t.id in seen else None
            rows.append((t.id, t.mean[0], t.mean[1], box))
            if t.id == target:
                target_box, target_pos = box, (t.mean[0], t.mean[1])
        return FrameResult(
            mode=self.state.mode.value if self.reid_enabled else None,
            target_track_id=target,
            target_box=target_box,
            target_position=target_pos,
            tracks=rows,
            scores=scores)
