"""Per-layer tracing by wrapping mpfollow's public functions from outside.

``Tracer.install`` replaces module attributes and class methods of
mpfollow with timing wrappers and ``uninstall`` puts the originals back.
The program's own files are not changed: its modules call these
functions through module attributes (``reid.train``,
``geometry.robot_pose_extrinsics``) or through globals of their own
module (``associate`` inside ``tracker``), so patching those names is
enough.

A span is (layer, start ns, end ns, parent span index). A layer's self
time is its span's duration minus the time of the spans directly inside
it. Wrappers record only while ``active`` is set, so set-up work that
calls the same functions (``sim.generate`` builds extrinsics) is left out.
"""

from __future__ import annotations

import time
from collections import defaultdict

from mpfollow import controller, geometry, pipeline, reid, tracker


def _count_overlap(acc, args, ret):
    acc["tracker.detections_in"] += len(args[0].boxes)
    acc["tracker.detections_kept"] += len(ret.boxes)


def _count_associate(acc, args, ret):
    pairs, _, unmatched_measurements = ret
    acc["tracker.matched"] += len(pairs)
    acc["tracker.tracks_created"] += len(unmatched_measurements)


def _count_train(acc, args, ret):
    acc["reid.train_rows"] += len(args[1])
    acc["reid.train_skipped"] += ret is False


# (owner, attribute, layer, counter). The pipeline reaches geometry and reid
# through module attributes and the tracker reaches its helpers through its
# own globals, so each entry patches the name its caller looks up.
TARGETS = (
    (pipeline.FollowPipeline, "process_frame", "pipeline", None),
    (geometry, "robot_pose_extrinsics", "geometry.extrinsics", None),
    (tracker, "build_observation_model", "geometry.observation_model", None),
    (tracker, "process_measurement", "geometry.measure", None),
    (tracker.Tracker, "step", "tracker.step", None),
    (tracker, "filter_overlaps", "tracker.overlap", _count_overlap),
    (tracker, "predict", "tracker.predict", None),
    (tracker, "associate", "tracker.associate", _count_associate),
    (tracker, "update", "tracker.update", None),
    (reid.PassthroughExtractor, "extract", "reid.extract", None),
    (reid, "score", "reid.score", None),
    (reid, "step_state_machine", "reid.state", None),
    (reid, "label_frame_samples", "reid.label", None),
    (reid, "update_samples", "reid.sample_insert", None),
    (reid, "train", "reid.train", _count_train),
    (controller, "compute_command", "controller.command", None),
)


class Tracer:
    def __init__(self, keep_spans=False):
        self.active = False
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = [] if keep_spans else None
        self._stack = []          # [child ns, span index] per open span
        self._saved = []

    def _wrap(self, fn, layer, counter):
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            index = -1
            if tracer.spans is not None:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append([0, index])
            start = clock()
            try:
                ret = fn(*args, **kwargs)
            finally:
                end = clock()
                child_ns, _ = stack.pop()
                duration = end - start
                tracer.total_ns[layer] += duration
                tracer.self_ns[layer] += duration - child_ns
                tracer.calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if index >= 0:
                    tracer.spans[index] = (layer, start, end, parent)
            if counter is not None:
                counter(tracer.counts, args, ret)
            return ret

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, layer, counter in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
