"""PID follow controller.

Drives the robot so the target sits directly ahead (lateral offset zero)
at a fixed forward distance, which is exactly the geometry the
width-based range estimate assumes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ControlCommand:
    linear_velocity: float    # m/s
    angular_velocity: float   # rad/s


@dataclass
class PidGains:
    kp_linear: float = 0.8
    ki_linear: float = 0.05
    kd_linear: float = 0.1
    kp_angular: float = 1.5
    ki_angular: float = 0.0
    kd_angular: float = 0.2
    integral_limit: float = 1.0
    v_max: float = 1.0
    omega_max: float = 1.5
    x_setpoint: float = 1.5   # desired forward distance, meters

    def __post_init__(self):
        for name in ("kp_linear", "ki_linear", "kd_linear",
                     "kp_angular", "ki_angular", "kd_angular"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.integral_limit <= 0 or self.v_max <= 0 or self.omega_max <= 0:
            raise ValueError("limits must be positive")


@dataclass
class PidState:
    integral_linear: float = 0.0
    integral_angular: float = 0.0
    prev_error_linear: float | None = None
    prev_error_angular: float | None = None


def reset(state: PidState) -> PidState:
    """Clear integrator and derivative memory (called on target loss)."""
    return PidState()


def _clamp(x, lim):
    return min(lim, max(-lim, x))


def compute_command(target_xy, dt, gains: PidGains, state: PidState):
    """One PID step toward (x_setpoint, 0) in the robot frame.

    target_xy is the target position in the robot frame (x forward,
    y left). Returns (ControlCommand, new PidState). Integrators are
    clamped for anti-windup and commands clamped to the velocity limits.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x, y = float(target_xy[0]), float(target_xy[1])

    e_lin = x - gains.x_setpoint
    e_ang = y   # positive y (target to the left) demands a left turn

    d_lin = 0.0 if state.prev_error_linear is None \
        else (e_lin - state.prev_error_linear) / dt
    d_ang = 0.0 if state.prev_error_angular is None \
        else (e_ang - state.prev_error_angular) / dt

    v = (gains.kp_linear * e_lin + gains.ki_linear * state.integral_linear
         + gains.kd_linear * d_lin)
    omega = (gains.kp_angular * e_ang + gains.ki_angular * state.integral_angular
             + gains.kd_angular * d_ang)

    i_lin = _clamp(state.integral_linear + e_lin * dt, gains.integral_limit)
    i_ang = _clamp(state.integral_angular + e_ang * dt, gains.integral_limit)

    cmd = ControlCommand(_clamp(v, gains.v_max), _clamp(omega, gains.omega_max))
    new_state = PidState(i_lin, i_ang, e_lin, e_ang)
    return cmd, new_state
