"""The benchmark's workloads: what each feeds the pipeline, and how it is built.

Every input comes from the workload's seed, so one seed gives one input.
The pipeline sees only the generated frames; the seed also seeds its
sample-set reservoir, as ``mpfollow track --seed`` does.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mpfollow import seqio, sim
from mpfollow.pipeline import FollowPipeline
from mpfollow.reid import ReidConfig
from mpfollow.tracker import TrackerConfig

CAPACITY = 64
TARGET_PERSON = 0

CROWD_PEOPLE = 12
CROWD_DURATION_S = 60.0
CROWD_ROBOT_SPEED = 0.5     # m/s, straight ahead along world +x
CROWD_WAYPOINT_STEP_S = 5.0
CROWD_WANDER_M = 0.3        # seeded offset of each waypoint from its lane


def crowd_scenario(seed: int) -> sim.Scenario:
    """A dozen pedestrians walking ahead of a robot that drives forward.

    Each person keeps a fixed lane (forward offset and side offset set by
    their index) and wanders around it by seeded amounts, so every seed
    gives a crowd of the same size and spread while the paths differ.
    """
    rng = np.random.default_rng([seed, 1])
    people = []
    for i in range(CROWD_PEOPLE):
        ahead = 2.5 + 6.0 * ((i * 5) % CROWD_PEOPLE) / (CROWD_PEOPLE - 1)
        lane = -2.0 + 4.0 * i / (CROWD_PEOPLE - 1)
        waypoints = []
        for t in np.arange(0.0, CROWD_DURATION_S + 1e-9, CROWD_WAYPOINT_STEP_S):
            x = CROWD_ROBOT_SPEED * t + ahead + float(rng.uniform(-1, 1)) * CROWD_WANDER_M
            y = lane + float(rng.uniform(-1, 1)) * CROWD_WANDER_M
            waypoints.append((float(t), x, y))
        people.append(sim.Pedestrian(id=i, cluster=i, waypoints=waypoints,
                                     phase_offset=float(rng.uniform(0, 2 * math.pi))))
    robot = sim.RobotPath([(0.0, 0.0, 0.0, 0.0),
                           (CROWD_DURATION_S, CROWD_ROBOT_SPEED * CROWD_DURATION_S,
                            0.0, 0.0)])
    return sim.Scenario(name="crowd", pedestrians=people, robot_path=robot,
                        duration=CROWD_DURATION_S, similarity=0.3,
                        box_pixel_std=0.5, target_id=TARGET_PERSON)


@dataclass
class Inputs:
    frames: list
    generate_s: float    # time spent in sim.generate, 0 when read from a file
    read_s: float        # time spent in seqio.read_sequence, 0 when generated


@dataclass
class Workload:
    name: str
    scenario: Callable[[int], sim.Scenario]
    mode: str
    reid_enabled: bool
    from_file: bool
    min_hit_rate: float | None    # None: the target must never be reported

    def generate(self, seed):
        return sim.generate(self.scenario(seed), seed)

    def load(self, seed, path=None) -> Inputs:
        """Make the frames one pass runs over: from the file, or generated."""
        t0 = time.perf_counter()
        if self.from_file:
            frames = seqio.read_sequence(path)
            return Inputs(frames, 0.0, time.perf_counter() - t0)
        frames = self.generate(seed)
        return Inputs(frames, time.perf_counter() - t0, 0.0)

    def pipeline(self, seed) -> FollowPipeline:
        return FollowPipeline(sim.DEFAULT_INTRINSICS, TrackerConfig(),
                              ReidConfig(mode=self.mode, capacity=CAPACITY),
                              target_person_id=TARGET_PERSON,
                              reid_enabled=self.reid_enabled, seed=seed)


def _builtin(name):
    return lambda seed: sim.builtin_scenarios()[name]


# Why each workload is here: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("drift_slt", _builtin("corridor1_like"), "SLT", True, False, 0.90),
        Workload("crowd_track", crowd_scenario, "ST", False, False, None),
        Workload("replay_similar_st", _builtin("room_like"), "ST", True, True, 0.90),
    )
}
