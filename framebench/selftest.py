"""Self-tests of the benchmark's output checks.

Each check must pass on the pipeline's real output and fail on a
deliberately corrupted copy of it. Run from the root of a checkout:

    python3 framebench/selftest.py
"""

import env  # first: pins the BLAS thread count before numpy is loaded

env.require_source()

import copy
import os
import statistics
import tempfile
import unittest

from mpfollow import seqio

import checks
from workloads import TARGET_PERSON, WORKLOADS

FRAMES = 200   # corridor1_like up to the end of the drift: the target is followed


class ChecksCatchCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.workload = WORKLOADS["drift_slt"]
        cls.frames = cls.workload.generate(0)[:FRAMES]
        pipe = cls.workload.pipeline(0)
        cls.results, cls.fit = [], None
        for rec in cls.frames:
            prev_w = pipe.classifier.w
            cls.results.append(pipe.process_frame(rec))
            clf = pipe.classifier
            if cls.fit is None and clf.w is not prev_w and len(pipe.sample_set) >= 32:
                cls.fit = (pipe.sample_set.samples(), clf.lam, clf.w.copy(), clf.b)
        cls.intr, cls.r_body = pipe.intr, pipe.tracker_cfg.r_body

    def test_ridge_check_catches_perturbed_w(self):
        samples, lam, w, b = self.fit
        self.assertEqual(checks.ridge_problems(samples, lam, w, b), [])
        bad_w = w.copy()
        bad_w[1] += 1e-6
        self.assertTrue(checks.ridge_problems(samples, lam, bad_w, b))
        self.assertTrue(checks.ridge_problems(samples, lam, w, b + 1e-6))

    def _centers(self, boxes):
        return [None if box is None else checks.box_center(box) for box in boxes]

    def test_hit_rate_catches_swapped_target(self):
        boxes = [r.target_box for r in self.results]
        hits, n = checks.hit_counts(self.frames, self._centers(boxes), TARGET_PERSON)
        self.assertGreaterEqual(hits / n, self.workload.min_hit_rate)

        # Report the other person's box wherever the pipeline reported one.
        swapped = []
        for rec, box in zip(self.frames, boxes):
            other = [d.box for d in rec.detections if d.person_id != TARGET_PERSON]
            swapped.append(other[0] if box is not None and other else box)
        hits, n = checks.hit_counts(self.frames, self._centers(swapped), TARGET_PERSON)
        self.assertLess(hits / n, self.workload.min_hit_rate)

    def test_target_only_while_following(self):
        r = next(r for r in self.results if r.target_track_id is not None)
        self.assertEqual(checks.frame_problems(r.mode, r.target_track_id, r.scores,
                                               True), [])
        self.assertTrue(checks.frame_problems("RE_ID", r.target_track_id, r.scores,
                                              True))
        self.assertTrue(checks.frame_problems(r.mode, r.target_track_id, r.scores,
                                              False))
        self.assertTrue(checks.frame_problems(r.mode, None, {1: 1.5}, True))

    def _range_mae(self, shift):
        errors, budgets = [], []
        for rec, r in zip(self.frames, self.results):
            rows = [(t, x + shift, y, box) for t, x, y, box in r.tracks]
            e, b = checks.range_terms(rec, rows, self.intr, self.r_body,
                                      self.workload.scenario(0).box_pixel_std)
            errors += e
            budgets += b
        return statistics.fmean(errors), statistics.fmean(budgets)

    def test_range_check_catches_shifted_track(self):
        mae, budget = self._range_mae(0.0)
        self.assertLessEqual(mae, budget)
        mae, budget = self._range_mae(0.5)
        self.assertGreater(mae, budget)

    def test_digest_catches_shifted_track(self):
        def outputs(shift):
            return [(r.mode, r.target_track_id,
                     [(t, x + (shift if k == len(self.results) - 1 else 0.0), y,
                       None if box is None else checks.box_key(box))
                      for t, x, y, box in r.tracks])
                    for k, r in enumerate(self.results)]
        self.assertEqual(checks.frame_digest(outputs(0.0)),
                         checks.frame_digest(outputs(0.0)))
        self.assertNotEqual(checks.frame_digest(outputs(0.0)),
                            checks.frame_digest(outputs(1e-9)))

    def test_sequence_check_catches_corrupted_frames(self):
        os.makedirs(env.OUT_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=env.OUT_DIR) as tmp:
            path = os.path.join(tmp, "seq.jsonl")
            seqio.write_sequence(self.frames, path)
            read_back = seqio.read_sequence(path)
        self.assertEqual(checks.sequence_problems(self.frames, read_back), [])

        bad = copy.deepcopy(read_back)
        bad[5].detections[0].descriptor = bad[5].detections[0].descriptor + 1e-6
        self.assertTrue(checks.sequence_problems(self.frames, bad))
        bad = copy.deepcopy(read_back)
        bad[7].pedestrian_positions[TARGET_PERSON] = (0.0, 0.0)
        self.assertTrue(checks.sequence_problems(self.frames, bad))
        self.assertTrue(checks.sequence_problems(self.frames, read_back[:-1]))


if __name__ == "__main__":
    unittest.main()
