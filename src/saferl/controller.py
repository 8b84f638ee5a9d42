"""Reference waypoint controller for the evasion task.

The controller is consumed by the rest of the system as an opaque callable
from the joint state to a control, so everything downstream treats it as a
black box.  Internally it switches between two behaviors:

* track: steer toward a point a short distance ahead on the straight
  start-goal segment at cruise speed, with proportional heading correction;
* evade: when a conflict is detected (obstacle ahead and projected gap at or
  below the danger radius), head for the waypoint perpendicular to the path
  on the side selected by the encounter geometry.  Concretely the commanded
  turn rate carries the required sign at a fixed magnitude strictly inside
  the admissible bound, and drops to zero once the perpendicular orientation
  has been reached, so the emitted command satisfies the evade predicate at
  every triggered step by construction.

The evade mode is sticky: it disengages only once the projected gap exceeds
the danger radius plus a margin (or the obstacle is behind), which prevents
mode chattering near the trigger boundary.  The monitor itself always uses
the exact danger radius; the margin shapes control only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evasion import (
    TaskConfig,
    _closest_on_path,
    classify_encounter,
    delta_theta,
    infront,
    mindistance,
    path_heading,
    wrap_angle,
)

__all__ = ["ControllerConfig", "SafeController"]


@dataclass(frozen=True)
class ControllerConfig:
    """Gains and speeds; defaults keep the unperturbed robot comfortably
    inside actuator limits and inside the episode step budget."""

    heading_gain: float = 2.0  # 1/s, proportional heading correction
    cruise_speed: float = 0.12  # m/s
    evade_turn_rate: float = 1.2  # rad/s, strictly inside the 1.5 rad/s bound
    exit_margin: float = 0.05  # m, added to danger_radius for mode exit
    track_turn_cap: float = 2.0  # rad/s
    target_lookahead: float = 0.3  # m, advance along the path when tracking


class SafeController:
    """Stateful evade/track controller; call with (robot, obstacle)."""

    def __init__(self, task: TaskConfig, cfg: ControllerConfig | None = None):
        self.task = task
        self.cfg = cfg or ControllerConfig()
        self.theta_path = path_heading(task.start, task.goal)
        self._direction = (math.cos(self.theta_path), math.sin(self.theta_path))
        self._span = np.subtract(task.goal, task.start)
        self._evading = False
        if self.cfg.evade_turn_rate > task.evade_rate_bound:
            raise ValueError("evade turn rate exceeds the admissible bound")

    @property
    def evading(self) -> bool:
        return self._evading

    def __call__(self, robot, obstacle) -> tuple[float, float]:
        task, cfg = self.task, self.cfg
        gap = mindistance(robot, obstacle, task.dt, task.lookahead)
        ahead = infront(robot, obstacle)
        if ahead and gap <= task.danger_radius:
            self._evading = True
        elif self._evading and not (ahead and gap <= task.danger_radius + cfg.exit_margin):
            self._evading = False

        if self._evading:
            _, sign = classify_encounter(robot, obstacle)
            dth = delta_theta(robot.theta, sign, self.theta_path)
            if dth >= 0.0 or abs(dth) <= task.evade_angle_tol:
                omega = 0.0
            else:
                omega = sign * cfg.evade_turn_rate
            v = cfg.cruise_speed
        else:
            tx, ty = self._track_target(robot)
            dx, dy = tx - robot.x, ty - robot.y
            # hypot(dx, dy) >= max(|dx|, |dy|), so numpy's hypot is needed
            # only when both offsets are tiny
            far = abs(dx) > 1e-9 or abs(dy) > 1e-9 or float(np.hypot(dx, dy)) > 1e-9
            theta_des = math.atan2(dy, dx) if far else self.theta_path
            err = wrap_angle(theta_des - robot.theta)
            omega = min(max(cfg.heading_gain * err, -cfg.track_turn_cap), cfg.track_turn_cap)
            v = cfg.cruise_speed

        v = min(max(v, task.v_min), task.v_max)
        omega = min(max(omega, -task.omega_max), task.omega_max)
        return v, omega

    def _track_target(self, robot) -> tuple[float, float]:
        """The point ``target_lookahead`` ahead of the robot's projection on
        the start-goal segment, capped at the goal."""
        task = self.task
        px, py = _closest_on_path(robot.x, robot.y, task.start, task.goal)
        lookahead = self.cfg.target_lookahead
        ax, ay = px + lookahead * self._direction[0], py + lookahead * self._direction[1]
        gx, gy = task.goal
        # Do not aim past the goal; a 2-element numpy dot (see _closest_on_path).
        overshoot = np.array((ax - gx, ay - gy)).dot(self._span)
        return (gx, gy) if overshoot > 0 else (ax, ay)
