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
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator

import numpy as np

from .atomic import atomic_open
from .boxes import IntervalBox
from .stl import PredicateTable, Signal, parse_formula, satisfies

__all__ = [
    "RobotState", "ObstacleState", "TaskConfig", "EpisodeTrace", "EvasionEnv",
    "EvasionSource", "ContainmentViolation", "wrap_angle", "path_heading",
    "unicycle_step", "mindistance", "perform", "episode_robustness", "observe",
    "require_zero_offset", "sample_obstacle", "safety_predicates",
    "TRACE_COLUMNS", "LOCKSTEP_MIN_ROWS", "CONTAINMENT_TOL",
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


def _check_fields(cfg, rules) -> None:
    """Raise ``ValueError("<Class>.<field> must be <rule>, not <value>")``
    for the first ``(field, holds, rule)`` triple in ``rules`` whose
    ``holds`` is false; every config dataclass checks its fields here."""
    for name, holds, rule in rules:
        if not holds:
            value = getattr(cfg, name)
            raise ValueError(f"{type(cfg).__name__}.{name} must be {rule}, not {value!r}")


def _is_finite(value) -> bool:
    """Whether every entry of the number or sequence ``value`` is a finite
    float; an integer too large for a float is not."""
    try:
        return bool(np.isfinite(np.asarray(value, dtype=float)).all())
    except OverflowError:
        return False


def _finite(cfg) -> list:
    """The rules that every field of ``cfg`` but a box holds finite values."""
    return [
        (f.name, _is_finite(value), "finite")
        for f in fields(cfg)
        if not isinstance(value := getattr(cfg, f.name), IntervalBox)
    ]


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
        _check_fields(self, _finite(self))
        start = np.asarray(self.start, dtype=float)
        goal = np.asarray(self.goal, dtype=float)
        lo, hi = self.obstacle_speed_range
        _check_fields(self, [
            ("dt", self.dt > 0, "positive"),
            ("k_max", self.k_max >= 1, "at least 1"),
            *((name, getattr(self, name) > 0, "positive")
              for name in ("danger_radius", "lookahead", "goal_radius")),
            ("v_min", self.v_min <= self.v_max, f"at most v_max {self.v_max}"),
            ("omega_max", self.omega_max > 0, "positive"),
            ("goal", float(np.hypot(*(goal - start))) > self.goal_radius,
             f"farther than goal_radius {self.goal_radius} from start {self.start}"),
            ("obstacle_speed_range", 0 <= lo <= hi, "a range with 0 <= lo <= hi"),
            ("obstacle_region", self.obstacle_region.dim == 2, "2-D (x, y)"),
        ])
        object.__setattr__(self, "start", (float(start[0]), float(start[1])))
        object.__setattr__(self, "goal", (float(goal[0]), float(goal[1])))
        object.__setattr__(self, "obstacle_speed_range", (float(lo), float(hi)))
        # sample_obstacle rejects draws within danger_radius of start; the
        # farthest point of the region from start is one of its corners
        region = self.obstacle_region
        (x0, y0), (x1, y1) = region.lower.tolist(), region.upper.tolist()
        reach = max(math.hypot(x - start[0], y - start[1]) for x in (x0, x1) for y in (y0, y1))
        rule = f"partly farther than danger_radius {self.danger_radius} from start {self.start}"
        _check_fields(self, [("obstacle_region", reach > self.danger_radius, rule)])


# ---------------------------------------------------------------------------
# Geometry and dynamics
# ---------------------------------------------------------------------------


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]; the branch point maps to +pi."""
    w = math.fmod(angle + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


def path_heading(start, goal) -> float:
    dx = goal[0] - start[0]
    dy = goal[1] - start[1]
    return math.atan2(dy, dx)


def unicycle_step(state, control, dt: float):
    """Forward-Euler unicycle update; speed jumps to the commanded value."""
    v_cmd, omega_cmd = float(control[0]), float(control[1])
    if not (math.isfinite(v_cmd) and math.isfinite(omega_cmd)):
        raise ValueError(f"non-finite control ({v_cmd}, {omega_cmd})")
    if not (math.isfinite(state.x) and math.isfinite(state.y) and math.isfinite(state.theta)):
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
    # np.minimum.reduce is .min() without its Python wrapper
    return float(np.minimum.reduce(np.hypot((r.x - o.x) + ts * vx, (r.y - o.y) + ts * vy)))


@functools.lru_cache(maxsize=8)
def _segment(start: tuple[float, float], goal: tuple[float, float]):
    """Constants of the start-goal segment: its direction vector as floats
    and as a read-only array, its squared length, and its start as a
    read-only array."""
    ab = np.array([goal[0] - start[0], goal[1] - start[1]])
    a = np.array(start)
    ab.flags.writeable = a.flags.writeable = False
    return ab.tolist(), ab, float(ab @ ab), a


def _closest_on_path(x: float, y: float, start, goal) -> tuple[float, float]:
    """The point of the start-goal segment closest to ``(x, y)``, as floats:
    ``start + clip(((x, y) - start) . ab / |ab|^2, 0, 1) * ab`` with ``ab =
    goal - start``.  The projection's dot product stays a numpy call: numpy
    rounds a 2-element dot as ``fma(x1, y1, x0*y0)``, which ``x0*y0 +
    x1*y1`` does not reproduce."""
    (abx, aby), ab, denom, _ = _segment(start, goal)
    ax, ay = start
    if denom == 0.0:
        return ax, ay
    t = min(max(float(np.array((x - ax, y - ay)).dot(ab)) / denom, 0.0), 1.0)
    return ax + t * abx, ay + t * aby


# ---------------------------------------------------------------------------
# Row-wise kernels: one row per sample, each repeating the IEEE operations of
# the scalar function it names, so a row is bit-equal to that function.
# ---------------------------------------------------------------------------


def _cos_sin(theta: np.ndarray) -> np.ndarray:
    """``math.cos`` and ``math.sin`` of every element, stacked on a new first
    axis; ``np.cos`` is not guaranteed to round as libm does on every build."""
    t = theta.ravel().tolist()
    return np.array([*map(math.cos, t), *map(math.sin, t)]).reshape((2, *theta.shape))


def _wrap_angles(angle: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of every element (``np.fmod`` equals ``math.fmod``)."""
    w = np.fmod(angle + math.pi, 2.0 * math.pi)
    np.add(w, 2.0 * math.pi, out=w, where=w <= 0.0)
    w -= math.pi
    return w


def _clamp_rows(x: np.ndarray, lo, hi, out=None) -> np.ndarray:
    """``min(max(x, lo), hi)`` per element.  On a tie numpy returns the
    second operand, as Python's ``max(x, lo)`` returns ``x`` (``-0.0``
    against ``0.0``), and NaN propagates in both."""
    return np.minimum(hi, np.maximum(lo, x, out=out), out=out)


def _closest_rows(pos: np.ndarray, start, goal) -> np.ndarray:
    """:func:`_closest_on_path` of each row of the ``(rows, 2)`` positions
    ``pos``; the projection is ``np.vecdot`` over C-ordered rows, which
    rounds as the per-row ``.dot``."""
    _, ab, denom, a = _segment(start, goal)
    if denom == 0.0:
        return np.tile(a, (pos.shape[0], 1))
    t = np.vecdot(np.subtract(pos, a, order="C"), ab) / denom
    return a + _clamp_rows(t, 0.0, 1.0)[:, None] * ab


_OBS_DIM = 7  # the width of observe's observation


def _observe_rows(robot: np.ndarray, obstacle: np.ndarray, cfg: TaskConfig) -> np.ndarray:
    """:func:`observe` of each row of the ``(rows, 4)`` robot and obstacle
    state arrays (columns ``x, y, theta, v``), as a C-ordered ``(rows, 7)``
    array."""
    pos = robot[:, :2]
    obs = np.empty((robot.shape[0], _OBS_DIM))
    obs[:, 0:2] = np.subtract(cfg.goal, pos)
    obs[:, 2:4] = _closest_rows(pos, cfg.start, cfg.goal) - pos
    obs[:, 4] = _wrap_angles(path_heading(cfg.start, cfg.goal) - robot[:, 2])
    obs[:, 5:7] = obstacle[:, :2] - pos
    return obs


def _min_gaps(rel: np.ndarray, cs: np.ndarray, speeds: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """:func:`mindistance` per row.  ``rel`` holds the obstacle's position
    minus the robot's, ``speeds`` the (robot, obstacle) speeds and ``cs``
    the cosines and sines of their headings (see :func:`_cos_sin`); the
    robot's offset ``r.x - o.x`` is ``-(o.x - r.x)`` exactly.  The gaps are
    laid out ``(grid, rows)``, so the min runs across rows at each grid
    step; min does not round, so the order is free."""
    vel = cs * speeds
    v = vel[..., 0] - vel[..., 1]
    g = -rel.T[:, None] + ts[:, None] * v[:, None]
    return np.hypot(g[0], g[1]).min(axis=0)


def _step_rows(state: np.ndarray, applied: np.ndarray, cs: np.ndarray, dt: float) -> None:
    """:func:`unicycle_step` of each row's robot under its ``applied``
    control and of its obstacle under (its speed, 0), in place on the
    ``(rows, 2, 4)`` robot and obstacle states; ``cs`` is :func:`_cos_sin`
    of their thetas.  The obstacle's ``theta + 0.0 * dt`` wraps to the same
    angle as its theta."""
    state[:, 0, 3] = applied[:, 0]
    step_x, step_y = cs * state[:, :, 3] * dt
    state[:, :, 0] += step_x
    state[:, :, 1] += step_y
    state[:, 0, 2] += applied[:, 1] * dt
    state[:, :, 2] = _wrap_angles(state[:, :, 2])


def _at_goal(robot: np.ndarray, cfg: TaskConfig) -> np.ndarray:
    """Whether each row of the ``(rows, 4)`` robot states lies within
    ``goal_radius`` of the goal, by ``math.hypot`` as :class:`EvasionEnv`
    tests it."""
    gx, gy = cfg.goal
    # hypot(dx, dy) >= |dx|, so only rows near the goal in x can be there
    dx = robot[:, 0] - gx
    done = np.abs(dx) <= 2.0 * cfg.goal_radius
    if np.count_nonzero(done):
        done[done] = [
            math.hypot(x, y - gy) <= cfg.goal_radius
            for x, y in zip(dx[done].tolist(), robot[done, 1].tolist())
        ]
    return done


def _references(theta_path: float) -> tuple[float, float]:
    """The reference headings ``theta_path - sign * pi / 2`` perpendicular to
    the start-goal path, for turn signs +1 and -1."""
    return theta_path - 1 * 0.5 * math.pi, theta_path - -1 * 0.5 * math.pi


def _encounters(block: np.ndarray, cs: np.ndarray, theta_path: float):
    """The encounter case, turn sign and orientation gap per row of a block
    of trace rows, as float arrays; ``cs`` is the :func:`_cos_sin` of its
    (robot, obstacle) thetas.

    The sign is +1 where the cross product of the robot's heading with the
    obstacle's offset is >= 0 (a tie counts as +1), else -1.  The case is 1
    or 2 for opposing headings (their dot product < 0), 3 or 4 otherwise,
    the odd case on the +1 side.  The gap is ``sign * wrap_angle(reference
    - theta)`` to the sign's reference heading (:func:`_references`), >= 0
    once the turn is completed."""
    rel = block[:, COL_XO : COL_YO + 1] - block[:, COL_XR : COL_YR + 1]
    (cos_r, cos_o), (sin_r, sin_o) = cs.transpose(0, 2, 1)
    plus = cos_r * rel[:, 1] - sin_r * rel[:, 0] >= 0.0
    case = 4.0 - plus - 2.0 * (cos_r * cos_o + sin_r * sin_o < 0.0)
    sign = np.where(plus, 1.0, -1.0)
    rth = block[:, COL_THR]
    return case, sign, sign * _wrap_angles(np.where(plus, *_references(theta_path)) - rth)


def observe(robot: RobotState, obstacle: ObstacleState, cfg: TaskConfig) -> np.ndarray:
    """Seven-component observation: goal offset (2), offset to the closest
    point of the start-goal segment (2), heading error to the path
    direction (1), obstacle offset (2)."""
    x, y = robot.x, robot.y
    gx, gy = cfg.goal
    px, py = _closest_on_path(x, y, cfg.start, cfg.goal)
    heading_err = wrap_angle(path_heading(cfg.start, cfg.goal) - robot.theta)
    return np.array(
        [gx - x, gy - y, px - x, py - y, heading_err, obstacle.x - x, obstacle.y - y]
    )


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

# Row layout; the first 10 columns form the monitored signal.
COL_XR, COL_YR, COL_THR, COL_VR = 0, 1, 2, 3
COL_XO, COL_YO, COL_THO, COL_VO = 4, 5, 6, 7
COL_CMD_V, COL_CMD_W = 8, 9
COL_SAFE_V, COL_SAFE_W = 10, 11
_SIGNAL_WIDTH = 10
_ROW_WIDTH = 12

TRACE_COLUMNS = (
    "robot_x", "robot_y", "robot_theta", "robot_v",
    "obstacle_x", "obstacle_y", "obstacle_theta", "obstacle_v",
    "cmd_v", "cmd_omega", "safe_v", "safe_omega",
)


@dataclass(frozen=True)
class EpisodeTrace:
    """One closed-loop episode: a row per executed step plus the final state.

    Row ``k`` holds what happened at step ``k`` (:data:`TRACE_COLUMNS`): the
    robot and obstacle states, the control applied and the safe control.
    The monitor (:func:`safety_predicates`) reads the first 10 columns.
    """

    rows: np.ndarray
    final_robot: RobotState
    final_obstacle: ObstacleState
    dt: float
    termination: str

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
        """One row per step: the trace columns with each row's turn sign, gap
        and case (:func:`_encounters`), then the monitor's margins under
        ``cfg``; the trigger holds where ``infront`` and ``near`` are >= 0."""
        table, states, rows = safety_predicates(cfg), self.signal().states, self.rows
        margins = {name: table.evaluate(name, states) for name in ("infront", "near", "evade")}
        cs = _cos_sin(rows[:, COL_THR : COL_THO + 1 : 4])
        case, sign, gap = _encounters(rows, cs, path_heading(cfg.start, cfg.goal))
        cmd, safe = slice(None, COL_SAFE_V), slice(COL_SAFE_V, None)
        header = ("k", *TRACE_COLUMNS[cmd], "sign", "delta_theta", *TRACE_COLUMNS[safe], "case")
        columns = (rows[:, cmd], sign, gap, rows[:, safe], case, *margins.values())
        with atomic_open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header + tuple(margins))
            for k, row in enumerate(np.column_stack(columns)):
                writer.writerow([k] + [repr(float(v)) for v in row])


def safety_predicates(cfg: TaskConfig) -> PredicateTable:
    """Monitor predicates over blocks of trace rows (see the module docstring).

    The ``infront`` column is the obstacle's offset along the robot's
    heading, ``(xo - xr) * cos(thr) + (yo - yr) * sin(thr)``, >= 0 where the
    obstacle is ahead.  The ``near`` column is ``danger_radius`` minus the
    projected gap, bit-equal to :func:`mindistance` on one row.  The
    ``evade`` column defines the admissible avoidance command: +1 where the
    command turns in the required direction within the rate bound, or holds
    a near-zero turn rate once the perpendicular orientation has been
    reached (within tolerance), else -1; its turn sign and orientation gap
    are those of :func:`_encounters`.

    Every column is computed from the block's states and control alone, on
    every row of the block, never from anything the rollout engine derived.
    The columns share the cosines and sines of the headings: the table
    keeps those of the last block it saw and reuses them when the next
    block's heading columns are the same bytes (never on a matching array
    address).  The obstacle's heading is taken once when it is the same
    angle on every row, as the obstacle never turns.
    """
    ts = _time_grid(cfg.dt, cfg.lookahead)
    theta_path = path_heading(cfg.start, cfg.goal)
    last = [b"", None]  # the last block's heading bytes and their cos/sin

    def headings(block) -> np.ndarray:
        """:func:`_cos_sin` of the block's (robot, obstacle) thetas, ``(2, rows, 2)``."""
        thetas = block[:, COL_THR : COL_THO + 1 : 4]
        key = thetas.tobytes()
        if key != last[0]:
            bits = thetas[:, 1].view(np.int64)
            if (bits == bits[0]).all():
                cs = np.empty((2, thetas.shape[0], 2))
                cs[:, :, 0] = _cos_sin(thetas[:, 0])
                cs[:, :, 1] = _cos_sin(thetas[:1, 1])
            else:
                cs = _cos_sin(thetas)
            cs.flags.writeable = False
            last[:] = key, cs
        return last[1]

    def h_infront(block) -> np.ndarray:
        (cos_r, _), (sin_r, _) = headings(block).transpose(0, 2, 1)
        return (block[:, COL_XO] - block[:, COL_XR]) * cos_r + (
            block[:, COL_YO] - block[:, COL_YR]
        ) * sin_r

    def h_near(block) -> np.ndarray:
        rel = block[:, COL_XO : COL_YO + 1] - block[:, COL_XR : COL_YR + 1]
        speeds = block[:, COL_VR : COL_VO + 1 : 4]
        return cfg.danger_radius - _min_gaps(rel, headings(block), speeds, ts)

    def h_evade(block) -> np.ndarray:
        _, sign, dth = _encounters(block, headings(block), theta_path)
        w = block[:, COL_CMD_W]
        rate = np.abs(w)
        turning = (rate <= cfg.evade_rate_bound) & (np.sign(w) == sign)
        settled = (dth >= 0.0) | (np.abs(dth) <= cfg.evade_angle_tol)
        holding = settled & (rate <= cfg.evade_rate_tol)
        return np.where(turning | holding, 1.0, -1.0)

    return PredicateTable({"infront": h_infront, "near": h_near, "evade": h_evade})


_SAFETY_FORMULA = parse_formula("G( (infront & near) => evade )")


def episode_robustness(
    trace: EpisodeTrace, cfg: TaskConfig, table: PredicateTable | None = None
) -> float:
    """Score a complete episode: -1 on any monitored violation, otherwise the
    :func:`perform` value of the final state.  ``table`` is
    :func:`safety_predicates` of ``cfg``, built here when not given."""
    if trace.n_steps == 0:
        raise ValueError("empty trace")
    if table is None:
        table = safety_predicates(cfg)
    if not satisfies(_SAFETY_FORMULA, trace.signal(), 0, table):
        return -1.0
    return perform(trace.final_robot.position(), cfg.start, cfg.goal, trace.n_steps, cfg.k_max)


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


# How far an executed control may leave the action box around its safe
# control before it counts as a containment violation.
CONTAINMENT_TOL = 1e-9


def require_zero_offset(mask: IntervalBox) -> None:
    """Raise ``ValueError`` unless the action box admits the zero offset, so
    the unmodified safe control is always available to a masked agent."""
    if not mask.contains(np.zeros(mask.dim)):
        raise ValueError("action mask box must contain the zero offset")


# EvasionEnv.returns plays fewer rows than this one after another: a lockstep
# step of EvasionSource.rollout_batch costs about a hundred numpy calls
# whatever the row count, for as many steps as the longest episode takes.
# Measured (ms per call, lockstep against one by one through step_raw, the
# min of 9 alternating calls averaged over 4 obstacle seeds, default task,
# controller and verified box, 2-core host): evaluation (a default-size
# policy) n = 6: 48.6 against 43.8, n = 8: 53.7 against 59.4, n = 10: 57.3
# against 74.7, n = 12: 57.6 against 86.0; calibration (one corner) n = 6:
# 41.7 against 26.2, n = 8: 42.5 against 35.0, n = 10: 44.1 against 43.0,
# n = 12: 46.4 against 53.0.  Calibration's crossover lies between 10 and 12
# rows, but both paths are bit-equal and one threshold serves both.
LOCKSTEP_MIN_ROWS = 8


class EvasionEnv:
    """The masked learning environment.

    :meth:`reset`/:meth:`step_raw` play one episode, where a raw action in
    [-1, 1]^2 is mapped affinely into the action box ``mask`` around the
    controller output, and :meth:`returns` plays whole episodes of it under
    a fixed policy, many at once on :meth:`EvasionSource.rollout_batch`,
    the engine that also makes the traces the monitor scores.  Every
    applied control is checked against that box; a violation is counted
    and raises :class:`ContainmentViolation` at that step.

    The per-step arithmetic runs on Python floats; it repeats, operation for
    operation, the IEEE arithmetic of the array expressions given in the
    comments, so results are bit-equal to them.
    """

    def __init__(
        self,
        cfg: TaskConfig,
        controller_factory: Callable[[], Callable],
        mask: IntervalBox,
    ):
        require_zero_offset(mask)
        self.cfg = cfg
        self.controller_factory = controller_factory
        self.mask = mask
        self.theta_path = path_heading(cfg.start, cfg.goal)
        self.containment_violations = 0
        self._robot: RobotState | None = None
        self._obstacle: ObstacleState | None = None
        self._controller = None
        self._k = 0
        self._done = True

    @property
    def mask(self) -> IntervalBox:
        return self._mask

    @mask.setter
    def mask(self, box: IntervalBox) -> None:
        """Install the action box and the per-axis floats that
        :meth:`step_raw` reads: lower bound, width, containment bounds with
        :data:`CONTAINMENT_TOL`, center and half-width of the normalised
        offset."""
        self._mask = box
        if box.dim != 2:
            raise ValueError(f"action mask box must be 2-D (speed, turn rate), got {box!r}")
        widths = box.widths
        self._mask_floats = (
            box.lower.tolist(),
            widths.tolist(),
            (box.lower - CONTAINMENT_TOL).tolist(),
            (box.upper + CONTAINMENT_TOL).tolist(),
            box.center.tolist(),
            np.maximum(0.5 * widths, 1e-12).tolist(),
            math.sqrt(box.dim),
        )

    def _clamp(self, control) -> tuple[float, float]:
        v = min(max(float(control[0]), self.cfg.v_min), self.cfg.v_max)
        w = min(max(float(control[1]), -self.cfg.omega_max), self.cfg.omega_max)
        return v, w

    # -- learning interface ------------------------------------------------

    def reset(self, obstacle: ObstacleState) -> np.ndarray:
        self._robot = RobotState(self.cfg.start[0], self.cfg.start[1], self.theta_path, 0.0)
        self._obstacle = obstacle
        self._controller = self.controller_factory()
        self._k = 0
        self._done = False
        return observe(self._robot, self._obstacle, self.cfg)

    def reset_random(self, rng: np.random.Generator) -> np.ndarray:
        return self.reset(sample_obstacle(self.cfg, rng))

    def step_raw(self, raw_action) -> tuple[np.ndarray, float, bool, dict]:
        """Map ``raw_action`` (clipped to [-1, 1]^2) into the action box around
        the safe control, apply it and return ``(observation, reward, done,
        info)``.  A NaN raw action raises ``ValueError`` before anything is
        mapped or applied; it is not a containment violation.

        The reward is the scaled one-step advantage of the applied control
        over the safe one: the counterfactual safe step's distance to the
        goal minus the applied step's, times ``r_diff``.  Each step takes one
        :func:`unicycle_step` of the robot and one of the obstacle; the
        applied step is the robot's step, and of the safe step only x and y
        are computed, as :func:`unicycle_step` computes them.
        """
        if self._done:
            raise RuntimeError("episode finished; call reset() first")
        r0, r1 = np.asarray(raw_action, dtype=float).tolist()
        if math.isnan(r0) or math.isnan(r1):
            raise ValueError(f"step {self._k}: raw action {[r0, r1]} is not a number")
        u_safe = self._clamp(self._controller(self._robot, self._obstacle))
        (lo0, lo1), (w0, w1), (in_lo0, in_lo1), (in_hi0, in_hi1), (c0, c1), (h0, h1), root_dim = (
            self._mask_floats
        )
        # offset = lower + 0.5 * (clip(raw, -1, 1) + 1) * widths
        r0 = min(max(r0, -1.0), 1.0)
        r1 = min(max(r1, -1.0), 1.0)
        u0, u1 = u_safe
        applied = self._clamp(
            (u0 + (lo0 + 0.5 * (r0 + 1.0) * w0), u1 + (lo1 + 0.5 * (r1 + 1.0) * w1))
        )
        d0, d1 = applied[0] - u0, applied[1] - u1
        if not (in_lo0 <= d0 <= in_hi0 and in_lo1 <= d1 <= in_hi1):
            self.containment_violations += 1
            raise ContainmentViolation(
                f"step {self._k}: applied offset {[d0, d1]} from the safe "
                f"control {list(u_safe)} lies outside the action box {self.mask!r}"
            )
        # action_diff = norm((applied - u_safe - center) / half) / sqrt(dim);
        # the norm is numpy's 2-element dot (see _closest_on_path)
        q = np.array(((d0 - c0) / h0, (d1 - c1) / h1))
        action_diff = math.sqrt(q.dot(q)) / root_dim
        # the reward: the safe step's offset from the goal (x and y as
        # unicycle_step moves them), its distance minus the applied step's
        r, o, cfg = self._robot, self._obstacle, self.cfg
        gx, gy = cfg.goal
        safe_x = r.x + u0 * math.cos(r.theta) * cfg.dt - gx
        safe_y = r.y + u0 * math.sin(r.theta) * cfg.dt - gy
        self._robot = r = unicycle_step(r, applied, cfg.dt)
        self._obstacle = o = unicycle_step(o, (o.v, 0.0), cfg.dt)
        self._k += 1
        distance = math.hypot(r.x - gx, r.y - gy)
        self._done = distance <= cfg.goal_radius or self._k >= cfg.k_max
        step_reward = cfg.r_diff * (math.hypot(safe_x, safe_y) - distance)
        info = {"action_diff": action_diff, "safe_control": u_safe, "applied": applied}
        return observe(r, o, cfg), step_reward, self._done, info

    def returns(self, obstacles, act: Callable) -> list[float]:
        """Play one :meth:`step_raw` episode per obstacle under a fixed
        policy and return each episode's return, the sum of its rewards.

        ``act(obs)`` maps a ``(rows, 7)`` array of observations to the
        ``(rows, 2)`` raw actions of those rows.  Fewer than
        :data:`LOCKSTEP_MIN_ROWS` episodes play one after another through
        :meth:`reset` and :meth:`step_raw`.  From that many on they run as
        one :meth:`EvasionSource.rollout_batch` with the raw actions mapped
        as :meth:`step_raw` maps them (:class:`_RawActions`), and each
        trace's rewards are summed (:func:`_trace_rewards`).  Either way
        episode ``i``'s return is bit-equal to a :meth:`step_raw` loop on
        ``obstacles[i]``, and the lowest failing episode raises: a
        containment violation is counted and raises
        :class:`ContainmentViolation` naming its step; a NaN raw action
        raises ``ValueError`` naming it and its step, and a non-finite
        control or state raises ``ValueError`` naming its step.
        """
        if len(obstacles) < LOCKSTEP_MIN_ROWS:
            totals = []
            for obstacle in obstacles:
                obs, total, done = self.reset(obstacle), 0.0, False
                while not done:
                    obs, step_reward, done, _ = self.step_raw(act(obs[None])[0])
                    total += step_reward
                totals.append(total)
            return totals
        source = EvasionSource(self.cfg, self.controller_factory, agent=_RawActions(self, act))
        totals = [0.0] * len(obstacles)
        try:
            for i, trace in source.rollout_batch([(o.x, o.y, o.theta, o.v) for o in obstacles]):
                for step_reward in _trace_rewards(trace, self.cfg):
                    totals[i] += step_reward
        except ContainmentViolation:
            self.containment_violations += 1
            raise
        return totals


class _RawActions:
    """A fixed policy's raw actions, mapped as :meth:`EvasionEnv.step_raw`
    maps them into the action box of ``env``, as an
    :class:`EvasionSource` agent: the safe controls ``safe`` of a block of
    rows go to ``safe + (lower + 0.5 * (clip(raw, -1, 1) + 1) * width)``,
    with ``raw = act(obs)`` and ``obs`` :func:`observe` of each row.  The
    box is the env's at each call.  A NaN raw action raises ``ValueError``
    naming it, as :meth:`EvasionEnv.step_raw` does, before it is mapped."""

    def __init__(self, env: EvasionEnv, act: Callable):
        self.env, self.act = env, act

    @property
    def mask(self) -> IntervalBox:
        return self.env.mask

    def __call__(self, robot: np.ndarray, obstacle: np.ndarray, safe: np.ndarray) -> np.ndarray:
        raw = np.asarray(self.act(_observe_rows(robot, obstacle, self.env.cfg)), dtype=float)
        nan = np.isnan(raw).any(axis=1)
        if nan.any():
            raise ValueError(f"raw action {raw[nan][0].tolist()} is not a number")
        box = self.mask
        return safe + (box.lower + 0.5 * (_clamp_rows(raw, -1.0, 1.0) + 1.0) * box.widths)


def _trace_rewards(trace: EpisodeTrace, cfg: TaskConfig) -> list[float]:
    """:meth:`EvasionEnv.step_raw`'s reward at each step of ``trace``: the
    distance to the goal of a step under the safe control minus that of
    the next row's robot (after the last row, the final robot), times
    ``r_diff``, per row in ``math`` calls as :meth:`~EvasionEnv.step_raw`
    makes them."""
    gx, gy, dt = *cfg.goal, cfg.dt
    rows = trace.rows
    x, y = rows[:, COL_XR].tolist(), rows[:, COL_YR].tolist()
    theta, safe_v = rows[:, COL_THR].tolist(), rows[:, COL_SAFE_V].tolist()
    final = trace.final_robot
    return [
        cfg.r_diff
        * (
            math.hypot(x0 + v * math.cos(th) * dt - gx, y0 + v * math.sin(th) * dt - gy)
            - math.hypot(x1 - gx, y1 - gy)
        )
        for x0, y0, th, v, x1, y1 in zip(x, y, theta, safe_v, x[1:] + [final.x], y[1:] + [final.y])
    ]


# ---------------------------------------------------------------------------
# Verification adapter
# ---------------------------------------------------------------------------


def _actuator_bounds(cfg: TaskConfig) -> tuple[np.ndarray, np.ndarray]:
    """The ``(v, omega)`` lower and upper actuator bounds of ``cfg``, the
    ones :meth:`EvasionEnv._clamp` clamps a control to."""
    return np.array((cfg.v_min, -cfg.omega_max)), np.array((cfg.v_max, cfg.omega_max))


def _row_views(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``(rows, 2, 4)`` robot and obstacle states and the ``(rows, 2)``
    safe and executed controls of a block of trace rows, as views."""
    state = rows[:, :COL_CMD_V].reshape(-1, 2, 4)
    return state, rows[:, COL_SAFE_V:], rows[:, COL_CMD_V:COL_SAFE_V]


def _controls(k, rows, state, evading, mode, cs, noise, batch, agent, bounds, marked=None) -> None:
    """Step ``k``'s controls of a block of trace rows, in place: ``safe_*``
    columns get the safe controls (``batch``'s when given) clamped to
    ``bounds`` (:func:`_actuator_bounds`), ``mode`` the evade modes after
    the step (with ``batch``), ``cmd_*`` columns the executed controls: the
    safe ones, mapped through ``agent`` and clamped, plus the perturbation
    rows ``noise`` and clamped again, each when given.  ``marked``, one
    bool per row, names the rows ``agent`` maps, in one call on those rows
    alone; every other row executes its clamped safe control, as without
    ``agent``.  None marks every row.  ``evading`` holds the modes before
    the step, ``state`` the rows' states as :func:`_row_views` views them
    (made once per cut of the rows, not per step) and ``cs`` the
    :func:`_cos_sin` of their headings, ``(2, rows, 2)``.

    Raises ``ValueError`` on a non-finite state or executed control or on
    an agent's ``ValueError`` (as ``step k: <message>``), and
    :class:`ContainmentViolation` on an agent control more than
    :data:`CONTAINMENT_TOL` off ``agent.mask`` around its safe control.  A
    row slice of every argument (``cs`` along axis 1) gives that slice's
    result, which :func:`_rows_alone` relies on.
    """
    safe, cmd = rows[:, COL_SAFE_V:], rows[:, COL_CMD_V:COL_SAFE_V]
    if batch is not None:
        safe[:, 0], safe[:, 1], mode[...] = batch(state[:, 0], state[:, 1], evading, cs)
    lo, hi = bounds
    _clamp_rows(safe, lo, hi, out=safe)
    executed = safe
    if agent is not None and (marked is None or marked.any()):
        on = slice(None) if marked is None or marked.all() else marked
        states = state[on]
        try:
            mapped = _clamp_rows(agent(states[:, 0], states[:, 1], safe[on]), lo, hi)
        except ValueError as exc:
            raise ValueError(f"step {k}: {exc}") from exc
        if isinstance(on, slice):
            executed = mapped
        else:
            executed = safe.copy()
            executed[on] = mapped
    if noise is None:
        cmd[...] = executed
    else:
        np.add(executed, noise, out=cmd)
        _clamp_rows(cmd, lo, hi, out=cmd)
    if not np.isfinite(rows[:, :COL_SAFE_V]).all():
        raise ValueError(f"step {k}: non-finite control or state")
    if agent is not None and not agent.mask.contains(executed - safe, tol=CONTAINMENT_TOL):
        raise ContainmentViolation(
            f"step {k}: applied offsets {(executed - safe).tolist()} from the safe "
            f"controls {safe.tolist()} leave the action box {agent.mask!r}"
        )


def _rows_alone(exc, k: int, rows, failed: dict, call) -> np.ndarray:
    """Make ``call``, which raised ``exc`` at step ``k``, again on each row
    alone; ``failed`` gets the error of each sample in ``rows`` that raises
    again.  Returns which rows passed, unless all did (``RuntimeError``)."""
    passed = np.ones(len(rows), dtype=bool)
    for j, i in enumerate(rows.tolist()):
        try:
            call(slice(j, j + 1))
        except Exception as row_exc:
            failed.setdefault(i, row_exc)
            passed[j] = False
    if passed.all():
        raise RuntimeError(
            f"step {k}: a call on {len(rows)} rows raised, but each sample run alone succeeded"
        ) from exc
    return passed


@dataclass
class EvasionSource:
    """Executable closed-loop system for scenario verification.

    The sampled initial condition is the obstacle state ``[x, y, theta, v]``;
    the robot always starts at the configured start pose.  Rollouts are
    deterministic given the initial condition and the perturbation stream.

    ``agent``, when given, is an action map around the safe controller,
    the trained agent (:class:`saferl.ppo.MaskedPolicy`) or a fixed
    policy's raw actions (:class:`_RawActions`, for
    :meth:`EvasionEnv.returns`): ``agent(robot, obstacle, safe)`` maps a
    block of rows' ``(rows, 4)`` states and ``(rows, 2)`` safe controls to
    the controls executed, which must stay in the box ``agent.mask`` around
    the safe ones.
    """

    cfg: TaskConfig
    controller_factory: Callable[[], Callable]
    agent: Callable | None = None

    initial_labels = ("obstacle_x", "obstacle_y", "obstacle_theta", "obstacle_v")

    def sample_initial(self, rng: np.random.Generator) -> np.ndarray:
        o = sample_obstacle(self.cfg, rng)
        return np.array([o.x, o.y, o.theta, o.v])

    def rollout(self, initial, perturb=None) -> EpisodeTrace:
        """One episode from ``initial``: :meth:`rollout_batch` of that one
        row.  ``perturb()`` gives one step's perturbation; it is called
        ``cfg.k_max`` times before the first step, and the calls past the
        episode's last step go unused.  Without it the episode runs
        unperturbed."""
        draws = None
        if perturb is not None:
            draws = [lambda m: np.array([perturb() for _ in range(m)])]
        ((_, trace),) = self.rollout_batch([initial], draws)
        return trace

    def rollout_batch(
        self, initials, perturbations=None, agent_rows=None
    ) -> Iterator[tuple[int, EpisodeTrace]]:
        """Roll one episode per row of ``initials`` with all rows stepped
        together; yield ``(row, trace)`` as each row finishes, so that a
        caller can score and drop a trace before the others end.

        A controller with an array method ``batch``, such as
        :meth:`saferl.controller.SafeController.batch`, gives all rows' safe
        controls in one call.  Any other controller is opaque: it is created
        once per row and called on its states, and, as in
        :meth:`EvasionEnv._clamp`, only the first two entries of each control
        it returns count.  :func:`_controls`, the one lockstep control step,
        then clamps the safe controls, maps them through ``agent`` when
        given, adds the step's perturbations and checks the result, in the
        ``safe_*`` and ``cmd_*`` columns of the step's trace rows.
        ``agent_rows``, None or one bool per row, names the rows that
        ``agent`` acts on (None: every row); the others execute their
        clamped safe controls, bit for bit as without ``agent``.

        ``perturbations`` is None or a sequence of one draw callable per row,
        such as ``functools.partial(box.sample, rng)``: ``draw(m)`` returns
        the row's ``(v, omega)`` perturbations of steps ``0 .. m - 1``.  Each
        is called once, with ``cfg.k_max``, before the first step; the rows
        past the row's last step are never read.  A finished row leaves the
        active set, so row ``i``'s trace depends on ``initials[i]`` and its
        own draws alone.  The tests pin every row, bit for bit, to a float
        oracle that steps one episode at a time through the controller's
        per-row call, the agent's per-row arithmetic and
        :func:`unicycle_step` (``rollout_ref`` in ``tests/reference.py``).

        A row fails, and leaves without a trace, at the step where
        :func:`_controls` raises for it or its controller raises, alone or
        in a block call (:func:`_rows_alone`); a row whose initial condition
        is not finite fails at step 0 before any call, and a controller
        factory that raises fails every row at step 0.  After the last row
        the lowest failed row's error is raised, with that row as its
        ``row``.
        """
        cfg, dt, agent = self.cfg, self.cfg.dt, self.agent
        initials = np.asarray(initials, dtype=float)
        n = initials.shape[0]
        if agent_rows is not None:
            agent_rows = np.asarray(agent_rows, dtype=bool)
            if agent_rows.shape != (n,):
                raise ValueError(f"agent_rows must hold one bool per row, not {agent_rows.shape}")
            if agent is None:
                agent_rows = None
        try:
            controller = self.controller_factory()
            batch = getattr(controller, "batch", None)
            if batch is None:
                controllers = [controller, *(self.controller_factory() for _ in range(n - 1))]
        except Exception as exc:
            exc.row = 0
            raise
        bounds = _actuator_bounds(cfg)
        block = np.empty((n, cfg.k_max, _ROW_WIDTH))
        noise = None if perturbations is None else np.empty((n, cfg.k_max, 2))  # (row, step, axis)
        for i, draw in enumerate(perturbations or ()):
            noise[i] = draw(cfg.k_max)
        finite = np.isfinite(initials).all(axis=1)
        failed = {  # sample index -> the error it failed with
            i: ValueError(f"step 0: non-finite initial state {initials[i].tolist()}")
            for i in np.flatnonzero(~finite).tolist()
        }
        # The active rows' current trace rows and evade modes, cut together as rows leave.
        active = np.flatnonzero(finite)
        cur, evading = np.empty((len(active), _ROW_WIDTH)), np.zeros(len(active), dtype=bool)
        cur[:, :COL_XO] = (*cfg.start, path_heading(cfg.start, cfg.goal), 0.0)
        cur[:, COL_XO : COL_VO + 1] = initials[active]
        state, safe, cmd = _row_views(cur)

        def controls(s):
            xi = None if noise is None else noise[active[s], k]
            marks = None if agent_rows is None else agent_rows[active[s]]
            _controls(
                k, cur[s], state[s], evading[s], mode[s], cs[:, s], xi, batch, agent, bounds, marks
            )

        k = 0
        while len(active):
            cs = _cos_sin(state[:, :, 2])
            if batch is None:
                calls = []
                for i, (r, o) in zip(active.tolist(), state.tolist()):
                    try:
                        c = controllers[i](RobotState(*r), ObstacleState(*o))
                        calls.append((float(c[0]), float(c[1])))
                    except Exception as exc:
                        failed[i] = exc
                        calls.append((math.nan, math.nan))
                safe[...] = calls
            mode = evading.copy()  # each row's evade mode after this step
            try:
                controls(slice(None))
                evading = mode
            except Exception as exc:
                keep = _rows_alone(exc, k, active, failed, controls)
                if not keep.any():
                    break
                active, cur, evading, cs = active[keep], cur[keep], mode[keep], cs[:, keep]
                state, safe, cmd = _row_views(cur)
            block[active, k] = cur
            _step_rows(state, cmd, cs, dt)
            k += 1
            done = _at_goal(state[:, 0], cfg)
            finished = np.count_nonzero(done)
            if not finished and k < cfg.k_max:
                continue
            at_horizon = k >= cfg.k_max
            for j in np.flatnonzero(done | at_horizon).tolist():
                i = int(active[j])
                yield i, EpisodeTrace(
                    rows=block[i, :k],
                    final_robot=RobotState(*cur[j, :COL_XO].tolist()),
                    final_obstacle=ObstacleState(*cur[j, COL_XO : COL_VO + 1].tolist()),
                    dt=dt,
                    termination="goal" if done[j] else "horizon",
                )
            if at_horizon or finished == len(active):
                break
            active, cur, evading = active[~done], cur[~done], evading[~done]
            state, safe, cmd = _row_views(cur)
        if failed:
            i = int(min(failed))
            failed[i].row = i
            raise failed[i]

    @functools.cached_property
    def _monitor(self) -> PredicateTable:
        """The safety predicates of ``cfg``, built once for every episode scored."""
        return safety_predicates(self.cfg)

    def robustness(self, trace: EpisodeTrace) -> float:
        return episode_robustness(trace, self.cfg, self._monitor)
