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
    _clamp_rows,
    _closest_on_path,
    _closest_rows,
    _min_gaps,
    _references,
    _time_grid,
    _wrap_angles,
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
        # the target's lead along the path, as _track_target computes it
        lead = self.cfg.target_lookahead
        self._lead = (lead * self._direction[0], lead * self._direction[1])
        self._span = np.subtract(task.goal, task.start)
        self._goal = np.array(task.goal)
        self._references = _references(self.theta_path)
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

    def batch(self, robot, obstacle, evading, headings):
        """:meth:`__call__` for many independent controllers at once.

        ``robot`` and ``obstacle`` are ``(rows, 4)`` arrays of states with
        columns ``(x, y, theta, v)``, ``evading`` is each row's mode before
        the call and ``headings`` the cosines and sines of the (robot,
        obstacle) headings: ``_cos_sin`` of the ``(rows, 2)`` array of both
        thetas, of shape ``(2, rows, 2)``.  Returns the ``(v, omega,
        evading)`` arrays.  Row ``i`` equals calling a controller in mode
        ``evading[i]`` on row ``i``'s states, bit for bit; ``self``'s own
        mode is not touched.
        """
        task, cfg = self.task, self.cfg
        n = robot.shape[0]
        pos, rth = robot[:, :2], robot[:, 2]
        rel = obstacle[:, :2] - pos
        speeds = np.concatenate((robot[:, 3:4], obstacle[:, 3:4]), axis=1)
        gap = _min_gaps(rel, headings, speeds, _time_grid(task.dt, task.lookahead))
        ahead = rel[:, 0] * headings[0, :, 0] + rel[:, 1] * headings[1, :, 0] >= 0.0
        evading = ahead & (
            (gap <= task.danger_radius)
            | (evading & (gap <= task.danger_radius + cfg.exit_margin))
        )

        # _track_target and the heading correction; the 2-element dots are
        # np.vecdot over C-ordered rows, which rounds as the per-row .dot
        goal = self._goal
        aim = _closest_rows(pos, task.start, task.goal)
        aim += self._lead
        overshoot = np.vecdot(np.subtract(aim, goal, order="C"), self._span) > 0
        if np.count_nonzero(overshoot):
            aim[overshoot] = goal
        to_aim = aim - pos
        theta_des = np.array([math.atan2(dy, dx) for dx, dy in to_aim.tolist()])
        # hypot(dx, dy) >= max(|dx|, |dy|): the offsets matter only where it is tiny
        far = np.hypot(to_aim[:, 0], to_aim[:, 1]) > 1e-9
        if np.count_nonzero(far) < n:
            far |= (np.abs(to_aim) > 1e-9).any(axis=1)
            theta_des[~far] = self.theta_path
        # One wrap serves both modes: tracking rows wrap the heading error,
        # evading rows the gap to delta_theta's reference heading.
        evade_rows = np.count_nonzero(evading)
        if evade_rows:
            # classify_encounter's turn side, as in _encounters
            plus = headings[0, :, 0] * rel[:, 1] - headings[1, :, 0] * rel[:, 0] >= 0.0
            theta_des = np.where(evading, np.where(plus, *self._references), theta_des)
        err = _wrap_angles(theta_des - rth)
        omega = _clamp_rows(cfg.heading_gain * err, -cfg.track_turn_cap, cfg.track_turn_cap)
        if evade_rows:
            # hold: delta_theta >= 0 or |delta_theta| <= tol, that is
            # delta_theta >= -tol, or >= 0 where no |delta_theta| <= tol
            tol = task.evade_angle_tol
            dth = np.where(plus, err, -err)
            hold = dth >= (-tol if tol >= 0.0 else 0.0)
            turn = np.where(plus, cfg.evade_turn_rate, -cfg.evade_turn_rate)
            omega = np.where(evading, np.where(hold, 0.0, turn), omega)

        v = np.full(n, min(max(cfg.cruise_speed, task.v_min), task.v_max))
        return v, _clamp_rows(omega, -task.omega_max, task.omega_max), evading

    def _track_target(self, robot) -> tuple[float, float]:
        """The point ``target_lookahead`` ahead of the robot's projection on
        the start-goal segment, capped at the goal."""
        task = self.task
        px, py = _closest_on_path(robot.x, robot.y, task.start, task.goal)
        ax, ay = px + self._lead[0], py + self._lead[1]
        gx, gy = task.goal
        # Do not aim past the goal; a 2-element numpy dot (see _closest_on_path).
        overshoot = np.array((ax - gx, ay - gy)).dot(self._span)
        return (gx, gy) if overshoot > 0 else (ax, ay)
