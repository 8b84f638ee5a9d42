"""Planar evasion task: unicycle robot, one straight-line obstacle, and the
safety monitor that scores complete episodes.

The safety contract over an episode is the temporal formula

    G( (infront & near) => evade )

where ``infront`` holds when the obstacle lies in the closed halfspace ahead
of the robot, ``near`` holds when the constant-velocity projections of robot
and obstacle come within ``danger_radius`` during the lookahead horizon, and
``evade`` constrains the commanded turn rate to the admissible avoidance
maneuver.  An episode that violates the formula scores -1; otherwise it
scores a goal-progress term plus a time bonus (see :func:`perform`).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .atomic import atomic_open
from .boxes import IntervalBox
from .stl import PredicateTable, Signal, parse_formula, satisfies

__all__ = [
    "RobotState",
    "ObstacleState",
    "TaskConfig",
    "EpisodeTrace",
    "EvasionEnv",
    "EvasionSource",
    "ContainmentViolation",
    "wrap_angle",
    "heading_vector",
    "path_heading",
    "unicycle_step",
    "mindistance",
    "infront",
    "infront_margin",
    "classify_encounter",
    "delta_theta",
    "evade",
    "perform",
    "episode_robustness",
    "reward",
    "observe",
    "closest_point_on_segment",
    "require_zero_offset",
    "sample_obstacle",
    "safety_formula",
    "safety_predicates",
    "TRACE_COLUMNS",
]


# ---------------------------------------------------------------------------
# States and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobotState:
    """Pose and speed: position in m, heading in rad wrapped to (-pi, pi], speed m/s."""

    x: float
    y: float
    theta: float
    v: float

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class ObstacleState:
    x: float
    y: float
    theta: float
    v: float

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])


def _default_arena() -> IntervalBox:
    return IntervalBox([-1.6, -1.0], [1.6, 1.0])


def _default_obstacle_region() -> IntervalBox:
    return IntervalBox([-0.3, -0.4], [0.3, 0.4])


@dataclass(frozen=True)
class TaskConfig:
    """Episode geometry, actuation limits and monitor thresholds.

    Angles are rad, distances m, rates rad/s, speeds m/s.
    """

    dt: float = 0.033
    k_max: int = 300
    danger_radius: float = 0.4
    lookahead: float = 1.0
    start: tuple[float, float] = (-0.4, 0.0)
    goal: tuple[float, float] = (0.4, 0.0)
    goal_radius: float = 0.05
    arena: IntervalBox = field(default_factory=_default_arena)
    v_min: float = 0.0
    v_max: float = 0.2
    omega_max: float = 3.6
    evade_rate_bound: float = 1.5
    evade_angle_tol: float = 0.01
    evade_rate_tol: float = 0.01
    r_diff: float = 200.0
    obstacle_region: IntervalBox = field(default_factory=_default_obstacle_region)
    obstacle_speed_range: tuple[float, float] = (0.05, 0.15)

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        for name in ("danger_radius", "lookahead", "goal_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.v_min > self.v_max or self.omega_max <= 0:
            raise ValueError("inconsistent actuator limits")
        start = np.asarray(self.start, dtype=float)
        goal = np.asarray(self.goal, dtype=float)
        if float(np.hypot(*(goal - start))) <= self.goal_radius:
            raise ValueError("start and goal coincide within goal_radius")
        object.__setattr__(self, "start", (float(start[0]), float(start[1])))
        object.__setattr__(self, "goal", (float(goal[0]), float(goal[1])))
        lo, hi = self.obstacle_speed_range
        if not 0 <= lo <= hi:
            raise ValueError("invalid obstacle speed range")
        object.__setattr__(self, "obstacle_speed_range", (float(lo), float(hi)))


# ---------------------------------------------------------------------------
# Geometry and dynamics
# ---------------------------------------------------------------------------


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]; the branch point maps to +pi."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def heading_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def path_heading(start, goal) -> float:
    dx = goal[0] - start[0]
    dy = goal[1] - start[1]
    return math.atan2(dy, dx)


def unicycle_step(state, control, dt: float):
    """Forward-Euler unicycle update; speed jumps to the commanded value."""
    v_cmd, omega_cmd = float(control[0]), float(control[1])
    if not (math.isfinite(v_cmd) and math.isfinite(omega_cmd)):
        raise ValueError(f"non-finite control ({v_cmd}, {omega_cmd})")
    if not all(math.isfinite(f) for f in (state.x, state.y, state.theta)):
        raise ValueError("non-finite state")
    cls = type(state)
    return cls(
        x=state.x + v_cmd * math.cos(state.theta) * dt,
        y=state.y + v_cmd * math.sin(state.theta) * dt,
        theta=wrap_angle(state.theta + omega_cmd * dt),
        v=v_cmd,
    )


@functools.lru_cache(maxsize=8)
def _time_grid(dt: float, lookahead: float) -> np.ndarray:
    """Read-only grid {0, dt, 2*dt, ...} up to and including ``lookahead``."""
    n = int(math.floor(lookahead / dt + 1e-9))
    ts = np.arange(n + 1) * dt
    ts.flags.writeable = False
    return ts


def mindistance(r: RobotState, o: ObstacleState, dt: float, lookahead: float) -> float:
    """Minimum gap between constant-velocity projections on the grid
    t in {0, dt, 2*dt, ...} up to and including ``lookahead``."""
    ts = _time_grid(dt, lookahead)
    vx = math.cos(r.theta) * r.v - math.cos(o.theta) * o.v
    vy = math.sin(r.theta) * r.v - math.sin(o.theta) * o.v
    return float(np.hypot((r.x - o.x) + ts * vx, (r.y - o.y) + ts * vy).min())


def infront_margin(r: RobotState, o: ObstacleState) -> float:
    """Signed distance of the obstacle past the line through the robot
    perpendicular to its heading (>= 0 means ahead, boundary inclusive)."""
    return float((o.x - r.x) * math.cos(r.theta) + (o.y - r.y) * math.sin(r.theta))


def infront(r: RobotState, o: ObstacleState) -> bool:
    return infront_margin(r, o) >= 0.0


def classify_encounter(r: RobotState, o: ObstacleState) -> tuple[int, int]:
    """Classify the encounter geometry into cases 1-4 and a turn direction.

    The obstacle's bearing side comes from the cross product of the robot
    heading with the relative position (zero ties count as the +1 side);
    opposing versus aligned motion comes from the heading dot product.
    Cases 1 and 3 return sign +1, cases 2 and 4 return -1, and mirroring
    the scene flips the sign.
    """
    hx, hy = math.cos(r.theta), math.sin(r.theta)
    rel_x, rel_y = o.x - r.x, o.y - r.y
    cross = hx * rel_y - hy * rel_x
    dot = hx * math.cos(o.theta) + hy * math.sin(o.theta)
    plus_side = cross >= 0.0
    opposing = dot < 0.0
    if opposing:
        case = 1 if plus_side else 2
    else:
        case = 3 if plus_side else 4
    return case, (1 if case in (1, 3) else -1)


def delta_theta(theta_r: float, sign: int, theta_path: float) -> float:
    """Orientation gap to the reference perpendicular to the start-goal path,
    measured in the turn direction; >= 0 once the turn has been completed."""
    reference = theta_path - sign * 0.5 * math.pi
    return sign * wrap_angle(reference - theta_r)


def evade(theta_dot: float, dtheta: float, sign: int, cfg: TaskConfig) -> bool:
    """Admissible avoidance command: either actively turning in the required
    direction within the rate bound, or holding near-zero turn rate once the
    perpendicular orientation has been reached (within tolerance)."""
    s = 0 if theta_dot == 0 else (1 if theta_dot > 0 else -1)
    turning = abs(theta_dot) <= cfg.evade_rate_bound and s == sign
    holding = (dtheta >= 0.0 or abs(dtheta) <= cfg.evade_angle_tol) and abs(
        theta_dot
    ) <= cfg.evade_rate_tol
    return turning or holding


def closest_point_on_segment(point, seg_start, seg_end) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    a = np.asarray(seg_start, dtype=float)
    b = np.asarray(seg_end, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return a.copy()
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return a + t * ab


def observe(robot: RobotState, obstacle: ObstacleState, cfg: TaskConfig) -> np.ndarray:
    """Seven-component observation: goal offset (2), offset to the closest
    point of the start-goal segment (2), heading error to the path
    direction (1), obstacle offset (2)."""
    pos = robot.position()
    goal = np.asarray(cfg.goal)
    proj = closest_point_on_segment(pos, cfg.start, cfg.goal)
    heading_err = wrap_angle(path_heading(cfg.start, cfg.goal) - robot.theta)
    return np.concatenate(
        [goal - pos, proj - pos, [heading_err], obstacle.position() - pos]
    )


def reward(
    prev_robot: RobotState, action, safe_action, cfg: TaskConfig
) -> float:
    """Scaled one-step advantage of ``action`` over the safe command: the
    difference of next-step distances to the goal, counterfactual safe step
    minus actual step, times ``r_diff``."""
    goal = cfg.goal
    actual = unicycle_step(prev_robot, action, cfg.dt)
    ref = unicycle_step(prev_robot, safe_action, cfg.dt)
    d_actual = math.hypot(actual.x - goal[0], actual.y - goal[1])
    d_ref = math.hypot(ref.x - goal[0], ref.y - goal[1])
    return cfg.r_diff * (d_ref - d_actual)


def perform(final_pos, initial_pos, goal, k: int, k_max: int) -> float:
    """Episode score for a safe trace: clamped fractional progress toward the
    goal plus the unused share of the time budget.  Lies in [0, 2)."""
    goal = np.asarray(goal, dtype=float)
    d0 = float(np.linalg.norm(np.asarray(initial_pos, dtype=float) - goal))
    if d0 <= 0.0:
        raise ValueError("initial position coincides with the goal")
    dk = float(np.linalg.norm(np.asarray(final_pos, dtype=float) - goal))
    progress = max(1.0 - dk / d0, 0.0)
    return progress + (1.0 - k / k_max)


# ---------------------------------------------------------------------------
# Episode traces and monitoring
# ---------------------------------------------------------------------------

# Row layout; the first 12 columns form the monitored signal.
COL_XR, COL_YR, COL_THR, COL_VR = 0, 1, 2, 3
COL_XO, COL_YO, COL_THO, COL_VO = 4, 5, 6, 7
COL_CMD_V, COL_CMD_W = 8, 9
COL_SIGN, COL_DTHETA = 10, 11
COL_SAFE_V, COL_SAFE_W, COL_CASE = 12, 13, 14
_SIGNAL_WIDTH = 12
_ROW_WIDTH = 15

TRACE_COLUMNS = (
    "robot_x",
    "robot_y",
    "robot_theta",
    "robot_v",
    "obstacle_x",
    "obstacle_y",
    "obstacle_theta",
    "obstacle_v",
    "cmd_v",
    "cmd_omega",
    "sign",
    "delta_theta",
    "safe_v",
    "safe_omega",
    "case",
)


@dataclass(frozen=True)
class EpisodeTrace:
    """One closed-loop episode: a row per executed step plus the final state.

    Row ``k`` holds the joint state at step ``k``, the control applied there,
    the turn sign and orientation gap, the safe control and the encounter
    case; the monitor (:func:`safety_predicates`) reads the first 12 columns.
    """

    rows: np.ndarray
    final_robot: RobotState
    final_obstacle: ObstacleState
    dt: float
    termination: str
    start: tuple[float, float]
    goal: tuple[float, float]

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != _ROW_WIDTH:
            raise ValueError(f"trace rows must have {_ROW_WIDTH} columns")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def n_steps(self) -> int:
        return self.rows.shape[0]

    def signal(self) -> Signal:
        return Signal(self.rows[:, :_SIGNAL_WIDTH], self.dt)

    def to_csv(self, path, cfg: TaskConfig) -> None:
        """One row per step: the trace columns, then the monitor's margins under
        ``cfg``; the trigger holds where ``infront`` and ``near`` are both >= 0."""
        table, states = safety_predicates(cfg), self.signal().states
        margins = {name: table.evaluate(name, states) for name in ("infront", "near", "evade")}
        with atomic_open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("k",) + TRACE_COLUMNS + tuple(margins))
            for k, row in enumerate(np.column_stack([self.rows, *margins.values()])):
                writer.writerow([k] + [repr(float(v)) for v in row])


def safety_predicates(cfg: TaskConfig) -> PredicateTable:
    """Monitor predicates over blocks of trace rows (see the module docstring).

    Each column repeats, row by row, the IEEE operations of
    :func:`infront_margin`, :func:`mindistance` and :func:`evade`, so the
    values are bit-equal to those scalar functions on one row.
    """
    ts = _time_grid(cfg.dt, cfg.lookahead)

    def headings(block, col):
        theta = block[:, col].tolist()
        return (
            np.array([math.cos(t) for t in theta]),
            np.array([math.sin(t) for t in theta]),
        )

    def h_infront(block) -> np.ndarray:
        cos_r, sin_r = headings(block, COL_THR)
        return (block[:, COL_XO] - block[:, COL_XR]) * cos_r + (
            block[:, COL_YO] - block[:, COL_YR]
        ) * sin_r

    def h_near(block) -> np.ndarray:
        cos_r, sin_r = headings(block, COL_THR)
        cos_o, sin_o = headings(block, COL_THO)
        vx = cos_r * block[:, COL_VR] - cos_o * block[:, COL_VO]
        vy = sin_r * block[:, COL_VR] - sin_o * block[:, COL_VO]
        gx = (block[:, COL_XR] - block[:, COL_XO])[:, None] + ts * vx[:, None]
        gy = (block[:, COL_YR] - block[:, COL_YO])[:, None] + ts * vy[:, None]
        return cfg.danger_radius - np.hypot(gx, gy).min(axis=1)

    def h_evade(block) -> np.ndarray:
        w, dth = block[:, COL_CMD_W], block[:, COL_DTHETA]
        rate = np.abs(w)
        turning = (rate <= cfg.evade_rate_bound) & (np.sign(w) == np.trunc(block[:, COL_SIGN]))
        holding = ((dth >= 0.0) | (np.abs(dth) <= cfg.evade_angle_tol)) & (
            rate <= cfg.evade_rate_tol
        )
        return np.where(turning | holding, 1.0, -1.0)

    return PredicateTable({"infront": h_infront, "near": h_near, "evade": h_evade})


_SAFETY_FORMULA = parse_formula("G( (infront & near) => evade )")


def safety_formula():
    """The global episode contract as a formula tree."""
    return _SAFETY_FORMULA


def episode_robustness(trace: EpisodeTrace, cfg: TaskConfig) -> float:
    """Score a complete episode: -1 on any monitored violation, otherwise the
    :func:`perform` value of the final state."""
    if trace.n_steps == 0:
        raise ValueError("empty trace")
    table = safety_predicates(cfg)
    if not satisfies(_SAFETY_FORMULA, trace.signal(), 0, table):
        return -1.0
    return perform(
        trace.final_robot.position(), trace.start, trace.goal, trace.n_steps, cfg.k_max
    )


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def sample_obstacle(cfg: TaskConfig, rng: np.random.Generator) -> ObstacleState:
    """Uniform obstacle draw from the configured region, heading in (-pi, pi]
    and speed in the configured range, rejecting starts already inside the
    danger radius of the robot's start position."""
    sx, sy = cfg.start
    while True:
        pos = cfg.obstacle_region.sample(rng)
        theta = float(rng.uniform(-math.pi, math.pi))
        speed = float(rng.uniform(*cfg.obstacle_speed_range))
        if math.hypot(pos[0] - sx, pos[1] - sy) > cfg.danger_radius:
            return ObstacleState(float(pos[0]), float(pos[1]), theta, speed)


class ContainmentViolation(RuntimeError):
    """An applied control left the verified action box around the safe control."""


def require_zero_offset(mask: IntervalBox) -> None:
    """Raise ``ValueError`` unless the action box admits the zero offset, so
    the unmodified safe control is always available to a masked agent."""
    if not mask.contains(np.zeros(mask.dim)):
        raise ValueError("action mask box must contain the zero offset")


class EvasionEnv:
    """Closed-loop episode runner.

    Two modes share one step implementation: :meth:`run_episode` drives the
    provided controller (optionally with an additive per-step perturbation
    stream), while :meth:`reset`/:meth:`step_raw` expose the learning
    interface where a raw action in [-1, 1]^2 is mapped affinely into the
    action box around the controller output.  Every applied control is
    checked against that box; a violation is counted and raises
    :class:`ContainmentViolation` at that step.  A step records one trace row
    and evaluates no monitor predicate; :func:`safety_predicates` does that.
    """

    def __init__(
        self,
        cfg: TaskConfig,
        controller_factory: Callable[[], Callable],
        mask: IntervalBox | None = None,
    ):
        if mask is not None:
            require_zero_offset(mask)
        self.cfg = cfg
        self.controller_factory = controller_factory
        self.mask = mask
        self.theta_path = path_heading(cfg.start, cfg.goal)
        self.containment_violations = 0
        self._rows: list[np.ndarray] | None = None
        self._robot: RobotState | None = None
        self._obstacle: ObstacleState | None = None
        self._controller = None
        self._k = 0
        self._done = True
        self._termination = ""

    # -- shared machinery -------------------------------------------------

    def _clamp(self, control) -> tuple[float, float]:
        v = min(max(float(control[0]), self.cfg.v_min), self.cfg.v_max)
        w = min(max(float(control[1]), -self.cfg.omega_max), self.cfg.omega_max)
        return v, w

    def _context(self):
        r, o = self._robot, self._obstacle
        u_safe = self._clamp(self._controller(r, o))
        case, sign = classify_encounter(r, o)
        dth = delta_theta(r.theta, sign, self.theta_path)
        return u_safe, sign, case, dth

    def _advance(self, applied, u_safe, sign, case, dth) -> None:
        cfg = self.cfg
        r, o = self._robot, self._obstacle
        self._rows.append(
            np.array(
                [
                    r.x, r.y, r.theta, r.v,
                    o.x, o.y, o.theta, o.v,
                    applied[0], applied[1],
                    float(sign), dth,
                    u_safe[0], u_safe[1], float(case),
                ]
            )
        )
        self._robot = unicycle_step(r, applied, cfg.dt)
        self._obstacle = unicycle_step(o, (o.v, 0.0), cfg.dt)
        self._k += 1
        gx, gy = cfg.goal
        if math.hypot(self._robot.x - gx, self._robot.y - gy) <= cfg.goal_radius:
            self._done, self._termination = True, "goal"
        elif self._k >= cfg.k_max:
            self._done, self._termination = True, "horizon"

    def _check_mask(self, applied, u_safe) -> None:
        offset = np.asarray(applied) - np.asarray(u_safe)
        if not self.mask.contains(offset, tol=1e-9):
            self.containment_violations += 1
            raise ContainmentViolation(
                f"step {self._k}: applied offset {offset.tolist()} from the safe "
                f"control {list(u_safe)} lies outside the action box {self.mask!r}"
            )

    # -- controller-driven episodes ---------------------------------------

    def run_episode(
        self,
        obstacle: ObstacleState,
        perturb: Callable[[], np.ndarray] | None = None,
    ) -> EpisodeTrace:
        """Roll one full episode under the controller; ``perturb()`` is drawn
        once per step and added to the controller output before clamping."""
        self.reset(obstacle)
        while not self._done:
            u_safe, sign, case, dth = self._context()
            if perturb is not None:
                xi = perturb()
                applied = self._clamp((u_safe[0] + float(xi[0]), u_safe[1] + float(xi[1])))
            else:
                applied = u_safe
            self._advance(applied, u_safe, sign, case, dth)
        return self.trace()

    # -- learning interface ------------------------------------------------

    def reset(self, obstacle: ObstacleState) -> np.ndarray:
        self._robot = RobotState(self.cfg.start[0], self.cfg.start[1], self.theta_path, 0.0)
        self._obstacle = obstacle
        self._controller = self.controller_factory()
        self._rows = []
        self._k = 0
        self._done = False
        self._termination = ""
        return observe(self._robot, self._obstacle, self.cfg)

    def reset_random(self, rng: np.random.Generator) -> np.ndarray:
        return self.reset(sample_obstacle(self.cfg, rng))

    def step_raw(self, raw_action) -> tuple[np.ndarray, float, bool, dict]:
        if self._done:
            raise RuntimeError("episode finished; call reset() first")
        if self.mask is None:
            raise RuntimeError("learning interface requires an action mask box")
        u_safe, sign, case, dth = self._context()
        raw = np.clip(np.asarray(raw_action, dtype=float), -1.0, 1.0)
        offset = self.mask.lower + 0.5 * (raw + 1.0) * self.mask.widths
        applied = self._clamp((u_safe[0] + offset[0], u_safe[1] + offset[1]))
        self._check_mask(applied, u_safe)
        step_reward = reward(self._robot, applied, u_safe, self.cfg)
        half = np.maximum(0.5 * self.mask.widths, 1e-12)
        diff = np.asarray(applied) - np.asarray(u_safe) - self.mask.center
        action_diff = float(np.linalg.norm(diff / half) / math.sqrt(self.mask.dim))
        self._advance(applied, u_safe, sign, case, dth)
        info = {
            "action_diff": action_diff,
            "termination": self._termination,
            "safe_control": u_safe,
            "applied": applied,
        }
        return observe(self._robot, self._obstacle, self.cfg), step_reward, self._done, info

    @property
    def done(self) -> bool:
        return self._done

    def trace(self) -> EpisodeTrace:
        if self._rows is None or not self._done:
            raise RuntimeError("no finished episode to export")
        return EpisodeTrace(
            rows=np.stack(self._rows),
            final_robot=self._robot,
            final_obstacle=self._obstacle,
            dt=self.cfg.dt,
            termination=self._termination,
            start=self.cfg.start,
            goal=self.cfg.goal,
        )


# ---------------------------------------------------------------------------
# Verification adapter
# ---------------------------------------------------------------------------


@dataclass
class EvasionSource:
    """Executable closed-loop system for scenario verification.

    The sampled initial condition is the obstacle state ``[x, y, theta, v]``;
    the robot always starts at the configured start pose.  Rollouts are
    deterministic given the initial condition and the perturbation stream.
    """

    cfg: TaskConfig
    controller_factory: Callable[[], Callable]

    initial_labels = ("obstacle_x", "obstacle_y", "obstacle_theta", "obstacle_v")

    def sample_initial(self, rng: np.random.Generator) -> np.ndarray:
        o = sample_obstacle(self.cfg, rng)
        return np.array([o.x, o.y, o.theta, o.v])

    def rollout(self, initial, perturb=None) -> EpisodeTrace:
        o = ObstacleState(*(float(v) for v in initial))
        env = EvasionEnv(self.cfg, self.controller_factory)
        return env.run_episode(o, perturb)

    def robustness(self, trace: EpisodeTrace) -> float:
        return episode_robustness(trace, self.cfg)
