import math

import numpy as np
import pytest

from mpfollow.controller import (
    ControlCommand,
    PidGains,
    PidState,
    compute_command,
    reset,
)
from mpfollow.sim import step_plant


GAINS = PidGains()


class TestComputeCommand:
    def test_at_setpoint_no_motion(self):
        cmd, _ = compute_command((GAINS.x_setpoint, 0.0), 0.1, GAINS,
                                 PidState())
        assert cmd.linear_velocity == pytest.approx(0.0)
        assert cmd.angular_velocity == pytest.approx(0.0)

    def test_first_command_is_proportional_only(self):
        # After a reset there is no integral or derivative history, so the
        # first command must be the pure P term.
        cmd, _ = compute_command((2.5, 0.4), 0.1, GAINS, reset(PidState()))
        assert cmd.linear_velocity == pytest.approx(GAINS.kp_linear * 1.0)
        assert cmd.angular_velocity == pytest.approx(GAINS.kp_angular * 0.4)

    def test_sign_conventions(self):
        far, _ = compute_command((3.0, 0.0), 0.1, GAINS, PidState())
        near, _ = compute_command((0.5, 0.0), 0.1, GAINS, PidState())
        left, _ = compute_command((1.5, 0.5), 0.1, GAINS, PidState())
        right, _ = compute_command((1.5, -0.5), 0.1, GAINS, PidState())
        assert far.linear_velocity > 0 and near.linear_velocity < 0
        assert left.angular_velocity > 0 and right.angular_velocity < 0

    def test_command_clamped_to_limits(self):
        cmd, _ = compute_command((100.0, 50.0), 0.1, GAINS, PidState())
        assert cmd.linear_velocity == GAINS.v_max
        assert cmd.angular_velocity == GAINS.omega_max
        cmd, _ = compute_command((-100.0, -50.0), 0.1, GAINS, PidState())
        assert cmd.linear_velocity == -GAINS.v_max
        assert cmd.angular_velocity == -GAINS.omega_max

    def test_integral_anti_windup(self):
        state = PidState()
        for _ in range(1000):
            _, state = compute_command((5.0, 3.0), 0.1, GAINS, state)
        assert abs(state.integral_linear) <= GAINS.integral_limit
        assert abs(state.integral_angular) <= GAINS.integral_limit

    def test_derivative_term(self):
        # Two steps with a shrinking error: the derivative should damp
        # the command relative to pure P+I.
        _, state = compute_command((3.0, 0.0), 0.1, GAINS, PidState())
        cmd, _ = compute_command((2.8, 0.0), 0.1, GAINS, state)
        e = 2.8 - GAINS.x_setpoint
        expected = (GAINS.kp_linear * e
                    + GAINS.ki_linear * state.integral_linear
                    + GAINS.kd_linear * (2.8 - 3.0) / 0.1)
        assert cmd.linear_velocity == pytest.approx(expected)

    def test_reset_clears_history(self):
        _, state = compute_command((3.0, 1.0), 0.1, GAINS, PidState())
        state = reset(state)
        assert state.integral_linear == 0.0
        assert state.prev_error_linear is None

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            compute_command((2.0, 0.0), 0.0, GAINS, PidState())

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            PidGains(kp_linear=-1.0)
        with pytest.raises(ValueError):
            PidGains(v_max=0.0)

    @pytest.mark.parametrize("name", [
        "kp_linear", "ki_linear", "kd_linear", "kp_angular", "ki_angular",
        "kd_angular", "integral_limit", "v_max", "omega_max", "x_setpoint"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gains_rejected(self, name, value):
        # A NaN gain made every command clamp to full speed in reverse.
        with pytest.raises(ValueError, match=name):
            PidGains(**{name: value})

    @pytest.mark.parametrize("target, dt", [
        ((3.0, math.nan), 0.1), ((math.nan, 0.5), 0.1), ((math.inf, 0.0), 0.1),
        ((3.0, -math.inf), 0.1), ((3.0, 0.5), math.nan), ((3.0, 0.5), math.inf)])
    def test_non_finite_input_rejected(self, target, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite, and the target finite"):
            compute_command(target, dt, GAINS, PidState())

    @pytest.mark.parametrize("gain", ["kd_linear", "kd_angular"])
    def test_nan_command_term_rejected(self, gain):
        # With a dt of 1e-310 the derivative is infinite, and a zero gain
        # times it is NaN, which the clamp read as full speed in reverse.
        with pytest.raises(ValueError, match="the command is not a number"):
            compute_command((3.0, 0.5), 1e-310, PidGains(**{gain: 0.0}),
                            PidState(0.0, 0.0, 0.0, 0.0))


def target_in_robot_frame(target_world, pose):
    dx = target_world[0] - pose[0]
    dy = target_world[1] - pose[1]
    c, s = math.cos(pose[2]), math.sin(pose[2])
    return (c * dx + s * dy, -s * dx + c * dy)


class TestClosedLoop:
    @pytest.mark.parametrize("seed", range(10))
    def test_converges_to_standoff(self, seed):
        # Static target, robot starting at a random nearby pose: the loop
        # must settle with the target 1.5 m directly ahead within 20 s.
        rng = np.random.default_rng(seed)
        target = (4.0, 1.0)
        pose = (rng.uniform(-1, 1), rng.uniform(-1, 1),
                rng.uniform(-math.pi / 2, math.pi / 2))
        state = PidState()
        dt = 0.05
        for _ in range(int(20.0 / dt)):
            rel = target_in_robot_frame(target, pose)
            cmd, state = compute_command(rel, dt, GAINS, state)
            pose = step_plant(pose, cmd, dt)
        rel = target_in_robot_frame(target, pose)
        assert abs(rel[0] - GAINS.x_setpoint) < 0.05
        assert abs(rel[1]) < 0.05

    def test_pure_rotation_when_target_behind(self):
        # A target behind the robot yields a strong turn command long
        # before the range error is closed.
        pose = (0.0, 0.0, 0.0)
        rel = target_in_robot_frame((-1.0, 2.0), pose)
        cmd, _ = compute_command(rel, 0.05, GAINS, PidState())
        assert cmd.angular_velocity == GAINS.omega_max
