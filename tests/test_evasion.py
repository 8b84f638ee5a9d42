import functools
import gc
import json
import math
import types
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    classify_encounter,
    closest_point_on_segment,
    delta_theta,
    evade,
    heading_vector,
    infront,
    infront_margin,
    reward,
)
from saferl import evasion, stl
from saferl.boxes import IntervalBox
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import (
    COL_CMD_W,
    COL_THO,
    ContainmentViolation,
    EpisodeTrace,
    EvasionEnv,
    EvasionSource,
    ObstacleState,
    RobotState,
    TaskConfig,
    episode_robustness,
    mindistance,
    observe,
    path_heading,
    perform,
    safety_predicates,
    sample_obstacle,
    unicycle_step,
    wrap_angle,
)
from saferl.evasion import LOCKSTEP_MIN_ROWS, _clamp_rows, _cos_sin, _observe_rows, _wrap_angles
from saferl.evasion import _min_gaps, _time_grid
from saferl.pipeline import config_from_dict, config_to_dict
from saferl.ppo import MaskedPolicy, PpoConfig, init_policy
from saferl.stl import robustness as stl_robustness
from saferl.stl import satisfies
from saferl.verify import probv

CFG = TaskConfig()


def make_safe_rows(n, robot_xy=(0.0, 0.0)):
    """Rows with the obstacle far behind the robot: trigger never active."""
    rows = np.zeros((n, 12))
    rows[:, 0] = robot_xy[0]
    rows[:, 1] = robot_xy[1]
    rows[:, 2] = 0.0  # heading +x
    rows[:, 3] = 0.1
    rows[:, 4] = robot_xy[0] - 5.0  # obstacle well behind
    rows[:, 5] = robot_xy[1]
    rows[:, 6] = math.pi
    rows[:, 7] = 0.05
    return rows


def make_trace(rows, final_robot, termination="horizon"):
    return EpisodeTrace(
        rows=rows,
        final_robot=final_robot,
        final_obstacle=ObstacleState(-5.0, 0.0, math.pi, 0.05),
        dt=CFG.dt,
        termination=termination,
    )


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------


def test_step_straight_line():
    out = unicycle_step(RobotState(0, 0, 0, 0.5), (1.0, 0.0), 1.0)
    assert (out.x, out.y, out.theta, out.v) == (1.0, 0.0, 0.0, 1.0)


def test_step_zero_input_keeps_position():
    state = RobotState(0.3, -0.2, 1.1, 0.2)
    out = unicycle_step(state, (0.0, 0.0), 0.033)
    assert (out.x, out.y) == (state.x, state.y)
    assert out.v == 0.0


def test_step_wraps_heading_to_half_open_interval():
    out = unicycle_step(RobotState(0, 0, 0, 0), (0.0, math.pi), 1.0)
    assert out.theta == pytest.approx(math.pi)
    out2 = unicycle_step(RobotState(0, 0, 0, 0), (0.0, 3 * math.pi), 1.0)
    assert out2.theta == pytest.approx(math.pi)
    out3 = unicycle_step(RobotState(0, 0, 0.1, 0), (0.0, math.pi), 1.0)
    assert out3.theta == pytest.approx(0.1 - math.pi)


def test_step_determinism_bit_exact():
    state = RobotState(0.123, -0.456, 0.789, 0.1)
    a = unicycle_step(state, (0.11, -0.22), 0.033)
    b = unicycle_step(state, (0.11, -0.22), 0.033)
    assert (a.x, a.y, a.theta, a.v) == (b.x, b.y, b.theta, b.v)


def test_step_rejects_nonfinite():
    with pytest.raises(ValueError):
        unicycle_step(RobotState(0, 0, 0, 0), (math.nan, 0.0), 0.033)


def test_wrap_angle_convention():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)
    for a in np.linspace(-10, 10, 101):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-12)
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-12)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


def test_mindistance_stationary():
    r = RobotState(0, 0, 0, 0)
    o = ObstacleState(3, 0, 0, 0)
    assert mindistance(r, o, 0.033, 1.0) == pytest.approx(3.0)


def test_mindistance_constant_gap():
    r = RobotState(0, 0, 0, 1.0)
    o = ObstacleState(1, 0, 0, 1.0)
    assert mindistance(r, o, 0.033, 1.0) == pytest.approx(1.0)


def test_mindistance_closing_head_on():
    r = RobotState(0, 0, 0, 1.0)
    o = ObstacleState(2, 0, math.pi, 1.0)
    # gap |2 - 2t| on the grid t in {0, 0.25, ..., 1.0} reaches 0 at t = 1
    assert mindistance(r, o, 0.25, 1.0) == pytest.approx(0.0)


def test_mindistance_symmetric_and_bounded_by_initial_gap():
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = RobotState(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi), rng.uniform(0, 0.2))
        o = ObstacleState(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi), rng.uniform(0, 0.2))
        d = mindistance(r, o, 0.033, 1.0)
        swapped = mindistance(
            RobotState(o.x, o.y, o.theta, o.v), ObstacleState(r.x, r.y, r.theta, r.v), 0.033, 1.0
        )
        assert d == pytest.approx(swapped)
        assert d <= math.hypot(r.x - o.x, r.y - o.y) + 1e-12


def test_infront_halfspace():
    r = RobotState(0, 0, 0, 0.1)
    assert infront(r, ObstacleState(1, 5, 0, 0)) is True
    assert infront(r, ObstacleState(-0.1, 0, 0, 0)) is False
    # boundary: obstacle on the perpendicular line through the robot
    assert infront_margin(r, ObstacleState(0.0, 2.0, 0, 0)) == 0.0
    assert infront(r, ObstacleState(0.0, 2.0, 0, 0)) is True


def test_evade_sign_head_on_cases():
    robot = RobotState(0, 0, 0, 0.1)
    left = ObstacleState(1.0, 0.3, math.pi, 0.1)
    right = ObstacleState(1.0, -0.3, math.pi, 0.1)
    assert classify_encounter(robot, left)[1] == 1
    assert classify_encounter(robot, right)[1] == -1
    case_left, _ = classify_encounter(robot, left)
    case_right, _ = classify_encounter(robot, right)
    assert case_left == 1
    assert case_right == 2


def test_evade_sign_same_direction_cases():
    robot = RobotState(0, 0, 0, 0.1)
    left = ObstacleState(1.0, 0.3, 0.2, 0.1)
    right = ObstacleState(1.0, -0.3, -0.2, 0.1)
    assert classify_encounter(robot, left) == (3, 1)
    assert classify_encounter(robot, right) == (4, -1)


def test_evade_sign_mirror_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(200):
        r = RobotState(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi), 0.1)
        o = ObstacleState(*rng.uniform(-1, 1, 2), rng.uniform(-math.pi, math.pi), 0.1)
        # mirror about the x axis (the start-goal line direction)
        rm = RobotState(r.x, -r.y, wrap_angle(-r.theta), r.v)
        om = ObstacleState(o.x, -o.y, wrap_angle(-o.theta), o.v)
        h = np.array([math.cos(r.theta), math.sin(r.theta)])
        cross = h[0] * (o.y - r.y) - h[1] * (o.x - r.x)
        if abs(cross) < 1e-9:
            continue
        assert classify_encounter(rm, om)[1] == -classify_encounter(r, o)[1]


def test_evade_sign_tie_turns_positive():
    robot = RobotState(0, 0, 0, 0.1)
    dead_ahead = ObstacleState(1.0, 0.0, math.pi, 0.1)
    assert classify_encounter(robot, dead_ahead)[1] == 1


def test_evade_predicate_cases():
    assert evade(1.0, -1.0, 1, CFG) is True
    assert evade(0.0, 0.005, 1, CFG) is True
    assert evade(0.0, 0.005, -1, CFG) is True
    assert evade(-1.0, -1.0, 1, CFG) is False
    assert evade(2.0, -1.0, 1, CFG) is False  # too fast even in right direction
    assert evade(0.0, -1.0, 1, CFG) is False  # not turning, not yet perpendicular
    assert evade(0.005, 0.5, 1, CFG) is True  # holding after the turn


def test_delta_theta_semantics():
    theta_path = 0.0
    # aligned with the path: quarter turn still ahead, in either direction
    assert delta_theta(0.0, 1, theta_path) == pytest.approx(-math.pi / 2)
    assert delta_theta(0.0, -1, theta_path) == pytest.approx(-math.pi / 2)
    # at the perpendicular reached by turning with the sign
    assert delta_theta(math.pi / 2, 1, theta_path) == pytest.approx(math.pi)
    assert delta_theta(-math.pi / 2 - 0.1, -1, theta_path) >= 0
    # range stays within [-pi, pi]
    for th in np.linspace(-math.pi, math.pi, 61):
        for sign in (1, -1):
            v = delta_theta(th, sign, 1.234)
            assert -math.pi <= v <= math.pi


# ---------------------------------------------------------------------------
# Reference kernels: the per-row implementations that the scalar kernels and
# the column predicates replaced; results must agree bit for bit
# ---------------------------------------------------------------------------


def _heading_ref(theta):
    return np.array([math.cos(theta), math.sin(theta)])


def mindistance_ref(r, o, dt, lookahead):
    n = int(math.floor(lookahead / dt + 1e-9))
    ts = np.arange(n + 1) * dt
    rel0 = np.array([r.x - o.x, r.y - o.y])
    relv = _heading_ref(r.theta) * r.v - _heading_ref(o.theta) * o.v
    gaps = rel0[None, :] + ts[:, None] * relv[None, :]
    return float(np.min(np.hypot(gaps[:, 0], gaps[:, 1])))


def infront_margin_ref(r, o):
    h = _heading_ref(r.theta)
    return float((o.x - r.x) * h[0] + (o.y - r.y) * h[1])


def classify_encounter_ref(r, o):
    h = _heading_ref(r.theta)
    rel_x, rel_y = o.x - r.x, o.y - r.y
    cross = h[0] * rel_y - h[1] * rel_x
    dot = h[0] * math.cos(o.theta) + h[1] * math.sin(o.theta)
    plus_side = cross >= 0.0
    opposing = dot < 0.0
    if opposing:
        case = 1 if plus_side else 2
    else:
        case = 3 if plus_side else 4
    return case, (1 if case in (1, 3) else -1)


def predicate_rows_ref(rows, cfg):
    """The per-row monitor predicates, one column per predicate."""
    out = {"infront": [], "near": [], "evade": []}
    for row in rows:
        r = RobotState(row[0], row[1], row[2], row[3])
        o = ObstacleState(row[4], row[5], row[6], row[7])
        out["infront"].append(infront_margin_ref(r, o))
        out["near"].append(cfg.danger_radius - mindistance_ref(r, o, cfg.dt, cfg.lookahead))
        out["evade"].append(1.0 if evade_ref(row, cfg) else -1.0)
    return {k: np.array(v) for k, v in out.items()}


def headings_at_gap(gap, sign, theta_path):
    """Robot headings whose :func:`delta_theta` under turn ``sign`` lies
    nearest to ``gap``, from below and from above (the same heading twice
    when one lands on it): the gap is a difference of angles near pi, so
    most gaps, such as 0.01, are not any heading's exactly."""
    theta = wrap_angle(theta_path - sign * 0.5 * math.pi - sign * gap)
    thetas = [theta]
    for toward in (-math.inf, math.inf):
        t = theta
        for _ in range(16):
            thetas.append(t := math.nextafter(t, toward))
    gaps = {t: delta_theta(t, sign, theta_path) for t in thetas}
    below = max((t for t in thetas if gaps[t] <= gap), key=gaps.get)
    above = min((t for t in thetas if gaps[t] >= gap), key=gaps.get)
    return below, above


# orientation gaps at and beside the evade thresholds, for either turn sign
GAPS = (-0.02, -0.01, -0.0, 0.0, 0.01, 0.3)
GAP_HEADINGS = {
    sign: [t for gap in GAPS for t in headings_at_gap(gap, sign, path_heading(CFG.start, CFG.goal))]
    for sign in (1, -1)
}
TURN_RATES = (-1.6, -1.5, -1.2, -0.01, -0.0, 0.0, 0.005, 0.01, 1.2, 1.5, 3.6)


def random_signal_rows(rng, n):
    """Signal rows over the arena with exact zeros mixed in: speeds (v = 0),
    turn rates, and turn rates and orientation gaps at the evade thresholds.
    For a gap, the robot takes a heading of :data:`GAP_HEADINGS` and the
    obstacle a bearing on that turn sign's side."""
    rows = np.zeros((n, 10))
    rows[:, [0, 4]] = rng.uniform(-1.6, 1.6, size=(n, 2))
    rows[:, [1, 5]] = rng.uniform(-1.0, 1.0, size=(n, 2))
    rows[:, [2, 6]] = rng.uniform(-math.pi, math.pi, size=(n, 2))
    rows[:, 3] = rng.uniform(0.0, 0.2, size=n)
    rows[:, 7] = rng.uniform(0.0, 0.15, size=n)
    rows[rng.random(n) < 0.1, 3] = 0.0
    rows[rng.random(n) < 0.1, 7] = 0.0
    rows[:, 9] = rng.choice(TURN_RATES, size=n)
    redraw = rng.random(n) < 0.5
    rows[redraw, 9] = rng.uniform(-3.6, 3.6, size=int(redraw.sum()))
    for i in np.flatnonzero(rng.random(n) < 0.5).tolist():
        sign = int(rng.choice([1, -1]))
        theta = rows[i, 2] = rng.choice(GAP_HEADINGS[sign])
        bearing = theta + sign * rng.uniform(0.1, math.pi - 0.1)
        rows[i, 4:6] = rows[i, 0:2] + rng.uniform(0.05, 1.0) * heading_vector(bearing)
    return rows


def test_gap_headings_reach_the_thresholds():
    # the headings straddle each threshold gap, and land on the exact zeros
    theta_path = path_heading(CFG.start, CFG.goal)
    for sign in (1, -1):
        for gap in GAPS:
            headings = headings_at_gap(gap, sign, theta_path)
            below, above = (delta_theta(t, sign, theta_path) for t in headings)
            assert below <= gap <= above and above - below < 1e-15, (sign, gap)
            if gap == 0.0:
                assert below == above == 0.0


def test_scalar_kernels_bit_equal_to_reference():
    rows = random_signal_rows(np.random.default_rng(404), 10_000)
    got, want = [], []
    for row in rows.tolist():
        r, o = RobotState(*row[0:4]), ObstacleState(*row[4:8])
        got.append((mindistance(r, o, CFG.dt, CFG.lookahead), infront_margin(r, o)))
        want.append((mindistance_ref(r, o, CFG.dt, CFG.lookahead), infront_margin_ref(r, o)))
        assert classify_encounter(r, o) == classify_encounter_ref(r, o)
    got, want = np.array(got), np.array(want)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_predicate_columns_bit_equal_to_per_row_reference():
    rows = random_signal_rows(np.random.default_rng(405), 10_000)
    table = safety_predicates(CFG)
    want = predicate_rows_ref(rows, CFG)
    for name in ("infront", "near", "evade"):
        got = table.evaluate(name, rows)
        assert np.array_equal(got.view(np.int64), want[name].view(np.int64)), name
        # a block that starts part-way through gives the same rows
        assert np.array_equal(table.evaluate(name, rows[17:40]), got[17:40]), name
    assert set(want["evade"]) == {-1.0, 1.0}


@st.composite
def signal_blocks(draw):
    """``(rows, 10)`` signal blocks drawn row by row, not engine traces: a
    robot heading at a threshold gap (:data:`GAP_HEADINGS`) or anywhere, an
    obstacle on the robot's position (cross product 0), straight ahead of a
    robot heading along +x (cross product 0), on the side of the heading's
    turn sign, or anywhere, and turn rates at the evade thresholds or
    anywhere."""
    coord, angle = st.floats(-1.6, 1.6), st.floats(-math.pi, math.pi)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        sign = draw(st.sampled_from([1, -1]))
        x, y = draw(coord), draw(coord)
        theta = draw(st.one_of(st.sampled_from(GAP_HEADINGS[sign]), st.just(0.0), angle))
        place = draw(st.sampled_from(["on", "ahead", "side", "free"]))
        if place == "on":
            ox, oy = x, y
        elif place == "ahead":
            theta, ox, oy = 0.0, x + draw(st.floats(-1.0, 1.0)), y
        elif place == "side":
            bearing = theta + sign * draw(st.floats(0.1, math.pi - 0.1))
            ox, oy = np.add((x, y), draw(st.floats(0.05, 1.0)) * heading_vector(bearing)).tolist()
        else:
            ox, oy = draw(coord), draw(coord)
        speed = st.one_of(st.just(0.0), st.floats(0.0, 0.2))
        w = draw(st.one_of(st.sampled_from(TURN_RATES), st.floats(-3.6, 3.6)))
        rows.append((x, y, theta, draw(speed), ox, oy, draw(angle), draw(speed), draw(speed), w))
    return np.array(rows)


@settings(max_examples=400, deadline=None)
@given(signal_blocks())
def test_evade_column_equals_the_scalar_oracle_on_random_blocks(block):
    got = safety_predicates(CFG).evaluate("evade", block)
    assert got.tolist() == [1.0 if evade_ref(row, CFG) else -1.0 for row in block.tolist()]


def test_shared_headings_follow_the_block_contents_not_its_address():
    rng = np.random.default_rng(406)
    table = safety_predicates(CFG)
    buffer = random_signal_rows(rng, 300)
    buffer[:, 6] = buffer[0, 6]  # a constant obstacle heading, taken once
    for change in (2, 6, None):  # robot heading, obstacle heading, nothing
        table.evaluate("infront", buffer)  # the table keeps this block's headings
        if change is not None:
            buffer[5:, change] += 0.25  # in place: same array, new contents
        want = predicate_rows_ref(buffer, CFG)
        for name in ("near", "infront"):
            assert np.array_equal(bits(table.evaluate(name, buffer)), bits(want[name])), (change, name)


# ---------------------------------------------------------------------------
# Episode scoring
# ---------------------------------------------------------------------------


def test_episode_robustness_violation_scores_minus_one():
    rows = make_safe_rows(10)
    # one step with the conflict active and an inadmissible command
    rows[4, 4] = rows[4, 0] + 0.1  # obstacle right in front
    rows[4, 5] = rows[4, 1]
    rows[4, 6] = math.pi
    # from those states: turn sign +1 (the tie on the heading line), a
    # quarter turn still to go
    assert encounter_ref(rows[4], CFG) == (1, 1, -0.5 * math.pi)
    rows[4, COL_CMD_W] = -1.0  # wrong turn direction
    trace = make_trace(rows, RobotState(*CFG.goal, 0.0, 0.1))
    assert episode_robustness(trace, CFG) == -1.0


def test_episode_robustness_goal_at_full_horizon():
    rows = make_safe_rows(CFG.k_max)
    trace = make_trace(rows, RobotState(CFG.goal[0], CFG.goal[1], 0.0, 0.1), "goal")
    assert episode_robustness(trace, CFG) == pytest.approx(1.0)


def test_episode_robustness_no_progress():
    k = 120
    rows = make_safe_rows(k, robot_xy=CFG.start)
    trace = make_trace(rows, RobotState(CFG.start[0], CFG.start[1], 0.0, 0.1))
    assert episode_robustness(trace, CFG) == pytest.approx(1.0 - k / CFG.k_max)


def test_episode_robustness_empty_trace():
    with pytest.raises(ValueError):
        episode_robustness(make_trace(np.zeros((0, 12)), RobotState(0, 0, 0, 0)), CFG)


def test_measure_sign_matches_formula(tmp_path):
    # Across deterministic and strongly perturbed episodes, the scalar
    # measure is >= 0 exactly when the formula holds on the trace.
    cfg = CFG
    source = EvasionSource(cfg, lambda: SafeController(cfg, ControllerConfig()))
    rng = np.random.default_rng(5)
    big = IntervalBox([-0.01, -0.08], [0.01, 0.08])  # large enough to cause violations
    formula = evasion._SAFETY_FORMULA
    seen = set()
    ics = [source.sample_initial(rng) for _ in range(30)]
    streams = [functools.partial(big.sample, np.random.default_rng(i)) for i in range(1, 30, 2)]
    traces = [*source.rollout_batch(ics[0::2]), *source.rollout_batch(ics[1::2], streams)]
    for _, trace in traces:
        rho = episode_robustness(trace, cfg)
        table = safety_predicates(cfg)
        sat = satisfies(formula, trace.signal(), 0, table)
        assert (rho >= 0) == sat
        assert (stl_robustness(formula, trace.signal(), 0, table) >= 0) == sat
        seen.add(sat)
    assert seen == {True, False}, "expected both safe and violating episodes"


def test_episode_robustness_leaves_no_cyclic_garbage():
    source = EvasionSource(CFG, lambda: SafeController(CFG, ControllerConfig()))
    trace = source.rollout(source.sample_initial(np.random.default_rng(3)))
    gc.collect()
    gc.disable()
    try:
        episode_robustness(trace, CFG)
        source.robustness(trace)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_scoring_a_probv_desugars_once_and_computes_each_heading_once(monkeypatch):
    # call counts, no timing, while one lockstep probv N = 50 is scored
    desugared, tables, steps = Counter(), [], []
    real_desugar, real_tables = stl.desugar, evasion.safety_predicates
    cos_calls, scoring = [0], [False]

    def desugar_spy(f):
        desugared[f] += 1
        return real_desugar(f)

    def counting_cos(x):
        cos_calls[0] += scoring[0]
        return math.cos(x)

    monkeypatch.setattr(stl, "desugar", desugar_spy)
    stl._core.cache_clear()
    monkeypatch.setattr(evasion, "safety_predicates", lambda cfg: tables.append(cfg) or real_tables(cfg))
    monkeypatch.setattr(evasion, "math", types.SimpleNamespace(**{**vars(math), "cos": counting_cos}))
    source = EvasionSource(CFG, lambda: SafeController(CFG, ControllerConfig()))

    def score(trace):
        steps.append(trace.n_steps)
        assert len(set(bits(trace.rows[:, COL_THO]).tolist())) == 1  # the obstacle never turns
        scoring[0] = True
        try:
            return source.robustness(trace)
        finally:
            scoring[0] = False

    report = probv(source, IntervalBox([-0.01, -0.08], [0.01, 0.08]), score, 50, 0.05, 7)
    assert len(report.robustnesses) == len(steps) == 50
    assert evasion._SAFETY_FORMULA in desugared and max(desugared.values()) == 1
    assert tables == [CFG]
    # one cosine per robot heading, shared by infront and near, and one per
    # episode for the obstacle
    assert cos_calls[0] == sum(steps) + len(steps)


def test_perform_range_and_examples():
    assert perform(CFG.goal, CFG.start, CFG.goal, CFG.k_max, CFG.k_max) == 1.0
    assert perform(CFG.start, CFG.start, CFG.goal, 60, 300) == pytest.approx(0.8)
    rng = np.random.default_rng(0)
    for _ in range(100):
        final = rng.uniform(-2, 2, 2)
        k = int(rng.integers(1, 301))
        val = perform(final, CFG.start, CFG.goal, k, 300)
        assert 0.0 <= val < 2.0
        assert 0.0 <= 1.0 - k / 300 < 1.0
    with pytest.raises(ValueError):
        perform(CFG.goal, CFG.goal, CFG.goal, 10, 300)


# ---------------------------------------------------------------------------
# Reward and observation
# ---------------------------------------------------------------------------


def test_reward_identity_is_zero():
    state = RobotState(-0.2, 0.05, 0.1, 0.1)
    assert reward(state, (0.12, 0.3), (0.12, 0.3), CFG) == 0.0


def test_reward_positive_for_faster_progress():
    state = RobotState(-0.2, 0.0, 0.0, 0.1)  # heading straight at the goal
    assert reward(state, (0.15, 0.0), (0.12, 0.0), CFG) > 0.0
    assert reward(state, (0.10, 0.0), (0.12, 0.0), CFG) < 0.0


def test_reward_linear_in_scale():
    from dataclasses import replace

    state = RobotState(-0.2, 0.1, 0.3, 0.1)
    base = reward(state, (0.15, 0.1), (0.12, 0.0), CFG)
    doubled = reward(state, (0.15, 0.1), (0.12, 0.0), replace(CFG, r_diff=2 * CFG.r_diff))
    assert doubled == pytest.approx(2.0 * base)


def test_observe_zero_components():
    robot = RobotState(CFG.goal[0], CFG.goal[1], 0.0, 0.1)
    obstacle = ObstacleState(CFG.goal[0], CFG.goal[1], 1.0, 0.1)
    obs = observe(robot, obstacle, CFG)
    assert obs.shape == (7,)
    assert np.allclose(obs[:5], 0.0)
    assert np.allclose(obs[5:], 0.0)


def test_observe_perpendicular_offset():
    d = 0.17
    robot = RobotState(0.0, d, 0.0, 0.1)  # path is the x axis
    obs = observe(robot, ObstacleState(1, 1, 0, 0.1), CFG)
    assert np.linalg.norm(obs[2:4]) == pytest.approx(d)
    assert obs[4] == 0.0


# ---------------------------------------------------------------------------
# Environment plumbing
# ---------------------------------------------------------------------------


def test_env_rollout_deterministic():
    source = EvasionSource(CFG, lambda: SafeController(CFG, ControllerConfig()))
    ic = source.sample_initial(np.random.default_rng(1))
    t1 = source.rollout(ic)
    t2 = source.rollout(ic)
    assert np.array_equal(t1.rows, t2.rows)
    assert t1.termination == t2.termination


def test_env_step_contract(tmp_path):
    masked = EvasionEnv(
        CFG, lambda: SafeController(CFG, ControllerConfig()), mask=IntervalBox.zero(2)
    )
    with pytest.raises(RuntimeError):
        masked.step_raw([0.0, 0.0])  # not reset
    obstacle = sample_obstacle(CFG, np.random.default_rng(0))
    obs = masked.reset(obstacle)
    assert obs.shape == (7,)
    total_steps = 0
    total_reward = 0.0
    done = False
    applied, safe = [], []
    while not done:
        obs, r, done, info = masked.step_raw([0.4, -0.4])  # degenerate mask: safe action
        assert 0.0 <= info["action_diff"] <= 1.0
        applied.append(info["applied"])
        safe.append(info["safe_control"])
        total_reward += r
        total_steps += 1
    with pytest.raises(RuntimeError):
        masked.step_raw([0.0, 0.0])  # finished
    assert masked.containment_violations == 0
    assert total_reward == 0.0  # playing the safe control exactly scores zero
    assert total_steps <= CFG.k_max
    # degenerate mask: applied control equals the safe control bit-exactly,
    # so the episode is the controller-driven one from the same obstacle
    assert np.array_equal(bits(applied), bits(safe))
    source = EvasionSource(CFG, lambda: SafeController(CFG, ControllerConfig()))
    trace = source.rollout([obstacle.x, obstacle.y, obstacle.theta, obstacle.v])
    assert trace.n_steps == total_steps
    assert np.array_equal(bits(trace.rows[:, 8:10]), bits(applied))
    assert np.array_equal(bits(trace.rows[:, 10:12]), bits(safe))
    path = tmp_path / "trace.csv"
    trace.to_csv(path, CFG)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("k,robot_x,robot_y,robot_theta")
    assert lines[0].endswith(",safe_v,safe_omega,case,infront,near,evade")
    assert len(lines) == total_steps + 1
    assert all(len(line.split(",")) == 19 for line in lines)
    # the exported sign, gap and case are the scalar functions of each row
    header = lines[0].split(",")
    columns = [header.index(name) for name in ("case", "sign", "delta_theta")]
    got = [[float(line.split(",")[c]) for c in columns] for line in lines[1:]]
    want = [encounter_ref(row, CFG) for row in trace.rows.tolist()]
    assert np.array_equal(bits(got), bits(want))
    assert {case for case, _, _ in want} >= {1, 2}


def encounter_ref(row, cfg):
    """The case, turn sign and orientation gap of a row's states, by the
    scalar functions."""
    r, o = RobotState(*row[0:4]), ObstacleState(*row[4:8])
    case, sign = classify_encounter(r, o)
    return case, sign, delta_theta(r.theta, sign, path_heading(cfg.start, cfg.goal))


def evade_ref(row, cfg):
    """:func:`evade` of a row's executed turn rate, with the turn sign and
    orientation gap of its states (:func:`encounter_ref`)."""
    _, sign, gap = encounter_ref(row, cfg)
    return evade(row[COL_CMD_W], gap, sign, cfg)


def step_flags_ref(row, cfg):
    """The trigger and evade flags as the environment once computed them at
    every step from the live state: rows hold that state and the applied
    command exactly, so the flags are recomputed from the row."""
    r, o = RobotState(*row[0:4]), ObstacleState(*row[4:8])
    near = mindistance(r, o, cfg.dt, cfg.lookahead) <= cfg.danger_radius
    return near and infront(r, o), evade_ref(row, cfg)


def flag_test_episodes(cfg, rng):
    """Traces of controller-driven episodes: unperturbed, perturbed, and
    perturbed by draws from :data:`STEP_MASK`, which offset the safe control
    as uniform raw actions offset it through the learning interface."""
    source = EvasionSource(cfg, lambda: SafeController(cfg, ControllerConfig()))
    ics = [source.sample_initial(rng) for _ in range(64)]
    box = IntervalBox([-0.01, -0.08], [0.01, 0.08])
    for _, trace in source.rollout_batch(ics[0:48:2]):
        yield trace
    seeds, boxes = [*range(1, 48, 2), *range(48, 64)], [box] * 24 + [STEP_MASK] * 16
    streams = [functools.partial(b.sample, np.random.default_rng(seed)) for seed, b in zip(seeds, boxes)]
    for _, trace in source.rollout_batch(ics[1:48:2] + ics[48:], streams):
        yield trace


def test_trigger_and_evade_from_predicate_columns_equal_step_flags():
    table = safety_predicates(CFG)
    seen = set()
    for i, trace in enumerate(flag_test_episodes(CFG, np.random.default_rng(21))):
        states = trace.signal().states
        trigger = (table.evaluate("infront", states) >= 0) & (table.evaluate("near", states) >= 0)
        ok = table.evaluate("evade", states) >= 0
        want = [step_flags_ref(row, CFG) for row in trace.rows.tolist()]
        assert trigger.tolist() == [t for t, _ in want], i
        assert ok.tolist() == [e for _, e in want], i
        # the monitor's encounter kernel equals the scalar functions of each
        # row's states
        cs, theta_path = _cos_sin(trace.rows[:, 2:7:4]), path_heading(CFG.start, CFG.goal)
        got = np.column_stack(evasion._encounters(trace.rows, cs, theta_path))
        want = [encounter_ref(row, CFG) for row in trace.rows.tolist()]
        assert np.array_equal(bits(got), bits(want)), i
        seen.update(zip(trigger.tolist(), ok.tolist()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_containment_violation_raises_at_the_step():
    env = EvasionEnv(
        CFG, lambda: SafeController(CFG, ControllerConfig()), mask=IntervalBox.zero(2)
    )
    env.reset_random(np.random.default_rng(0))
    env.step_raw([0.0, 0.0])
    # a box without the zero offset: the clamp to v_max cuts the offset to
    # 0.08, below the box's lower bound on the speed axis
    env.mask = IntervalBox([0.1, 0.0], [0.2, 0.0])
    with pytest.raises(ContainmentViolation, match=r"step 1: applied offset .*IntervalBox\(\[0\.1, 0\.2\]"):
        env.step_raw([0.0, 0.0])
    assert env.containment_violations == 1


STEP_MASK = IntervalBox([-0.02, -0.3], [0.03, 0.4])


def test_nan_raw_action_raises_before_mapping():
    def make():
        return EvasionEnv(CFG, lambda: SafeController(CFG, ControllerConfig()), mask=STEP_MASK)

    env, twin = make(), make()
    obstacle = sample_obstacle(CFG, np.random.default_rng(0))
    env.reset(obstacle)
    twin.reset(obstacle)
    for raw in ([math.nan, 0.0], np.array([0.5, math.nan])):
        with pytest.raises(ValueError, match=r"step 0: raw action \[.*nan.*\] is not a number"):
            env.step_raw(raw)
    assert env.containment_violations == 0
    # nothing was mapped or applied, and +-inf is still clipped to the box edge
    got = env.step_raw([math.inf, -math.inf])
    want = twin.step_raw([1.0, -1.0])
    assert np.array_equal(got[0], want[0]) and got[1:3] == want[1:3]
    assert got[3] == want[3]
    for key in ("applied", "safe_control"):
        assert np.array_equal(bits(got[3][key]), bits(want[3][key])), key


# ---------------------------------------------------------------------------
# Float step path against the array code it replaced.  Bits are compared:
# numpy rounds a 2-element dot or norm as fma(x1, y1, x0*y0), which
# x0*y0 + x1*y1 does not reproduce once no component is zero, so the tilted
# tasks (start-goal segment off both axes) are where a mismatch shows.  The
# controller's overshoot dot enters only through its sign, which no sampled
# state flips.
# ---------------------------------------------------------------------------

TILTED = (
    replace(CFG, start=(-0.37, -0.21), goal=(0.43, 0.18)),
    replace(CFG, start=(0.35, -0.3), goal=(-0.31, 0.27)),
)


def observe_ref(robot, obstacle, cfg):
    pos = robot.position()
    goal = np.asarray(cfg.goal)
    proj = closest_point_on_segment(pos, cfg.start, cfg.goal)
    heading_err = wrap_angle(path_heading(cfg.start, cfg.goal) - robot.theta)
    return np.concatenate([goal - pos, proj - pos, [heading_err], obstacle.position() - pos])


def step_raw_ref(env, raw_action):
    """EvasionEnv.step_raw in array code: (observation, reward, done,
    action_diff, applied control, safe control)."""
    cfg = env.cfg
    u_safe = env._clamp(env._controller(env._robot, env._obstacle))
    raw = np.clip(np.asarray(raw_action, dtype=float), -1.0, 1.0)
    offset = env.mask.lower + 0.5 * (raw + 1.0) * env.mask.widths
    applied = env._clamp((u_safe[0] + offset[0], u_safe[1] + offset[1]))
    moved = np.subtract(applied, u_safe)
    if not env.mask.contains(moved, tol=1e-9):
        raise ContainmentViolation(
            f"step {env._k}: applied offset {moved.tolist()} from the safe "
            f"control {list(u_safe)} lies outside the action box {env.mask!r}"
        )
    step_reward = reward(env._robot, applied, u_safe, env.cfg)
    half = np.maximum(0.5 * env.mask.widths, 1e-12)
    diff = np.asarray(applied) - np.asarray(u_safe) - env.mask.center
    action_diff = float(np.linalg.norm(diff / half) / math.sqrt(env.mask.dim))
    env._robot = unicycle_step(env._robot, applied, cfg.dt)
    env._obstacle = unicycle_step(env._obstacle, (env._obstacle.v, 0.0), cfg.dt)
    env._k += 1
    at_goal = math.hypot(env._robot.x - cfg.goal[0], env._robot.y - cfg.goal[1]) <= cfg.goal_radius
    done = at_goal or env._k >= cfg.k_max
    return observe_ref(env._robot, env._obstacle, cfg), step_reward, done, action_diff, applied, u_safe


def safe_call_ref(ctl, robot, obstacle):
    """SafeController.__call__ with the target tracked in array code."""
    task, cfg = ctl.task, ctl.cfg
    gap = mindistance(robot, obstacle, task.dt, task.lookahead)
    ahead = infront(robot, obstacle)
    if ahead and gap <= task.danger_radius:
        ctl._evading = True
    elif ctl._evading and not (ahead and gap <= task.danger_radius + cfg.exit_margin):
        ctl._evading = False
    if ctl._evading:
        _, sign = classify_encounter(robot, obstacle)
        dth = delta_theta(robot.theta, sign, ctl.theta_path)
        if dth >= 0.0 or abs(dth) <= task.evade_angle_tol:
            omega = 0.0
        else:
            omega = sign * cfg.evade_turn_rate
    else:
        start, goal = np.asarray(task.start), np.asarray(task.goal)
        proj = closest_point_on_segment(robot.position(), start, goal)
        advanced = proj + cfg.target_lookahead * heading_vector(ctl.theta_path)
        overshoot = float((advanced - goal) @ (goal - start))
        target = goal if overshoot > 0 else advanced
        to_target = target - robot.position()
        dist = float(np.hypot(*to_target))
        theta_des = math.atan2(to_target[1], to_target[0]) if dist > 1e-9 else ctl.theta_path
        err = wrap_angle(theta_des - robot.theta)
        omega = min(max(cfg.heading_gain * err, -cfg.track_turn_cap), cfg.track_turn_cap)
    v = min(max(cfg.cruise_speed, task.v_min), task.v_max)
    omega = min(max(omega, -task.omega_max), task.omega_max)
    return v, omega


def random_step_states(cfg, rng, n):
    """Robot and obstacle states over the arena, a fifth of the robots on the
    start-goal segment (some exactly at its ends), and raw actions with the
    box edges, zeros and infinities mixed in."""
    (x0, y0), (x1, y1) = cfg.start, cfg.goal
    for i in range(n):
        if i % 5 == 0:
            t = float(rng.choice([0.0, 1.0, rng.uniform(-0.1, 1.1)]))
            x, y = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        else:
            x, y = cfg.arena.sample(rng).tolist()
        robot = RobotState(x, y, float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0, 0.2)))
        ox, oy = cfg.arena.sample(rng).tolist()
        obstacle = ObstacleState(
            ox, oy, float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0, 0.15))
        )
        raw = rng.uniform(-1.2, 1.2, 2)
        raw[rng.random(2) < 0.2] = rng.choice([-math.inf, -1.0, 0.0, 1.0, math.inf])
        yield robot, obstacle, raw


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def joint_state(env):
    return [*vars(env._robot).values(), *vars(env._obstacle).values()]


@pytest.mark.parametrize("cfg, n", [(CFG, 10_000), (TILTED[0], 5_000), (TILTED[1], 5_000)])
def test_step_raw_bit_equal_to_array_reference(cfg, n):
    def make(mask):
        return EvasionEnv(cfg, lambda: SafeController(cfg, ControllerConfig()), mask=mask)

    rng = np.random.default_rng(606)
    pairs = [(make(mask), make(mask)) for mask in (IntervalBox.zero(2), STEP_MASK)]
    for i, (robot, obstacle, raw) in enumerate(random_step_states(cfg, rng, n)):
        env, ref = pairs[bool(i % 10)]
        assert np.array_equal(bits(env.reset(obstacle)), bits(ref.reset(obstacle)))
        env._robot = ref._robot = robot
        got_obs, want_obs = observe(robot, obstacle, cfg), observe_ref(robot, obstacle, cfg)
        assert np.array_equal(bits(got_obs), bits(want_obs)), i
        obs, r, done, info = env.step_raw(raw)
        want_obs, want_r, want_done, want_diff, want_applied, want_safe = step_raw_ref(ref, raw)
        assert np.array_equal(bits(obs), bits(want_obs)), i
        assert np.array_equal(bits([r, info["action_diff"]]), bits([want_r, want_diff])), i
        assert done == want_done
        assert np.array_equal(bits(info["applied"]), bits(want_applied)), i
        assert np.array_equal(bits(info["safe_control"]), bits(want_safe)), i
        assert np.array_equal(bits(joint_state(env)), bits(joint_state(ref))), i


def past_checks(cfg, **changes):
    """``cfg`` with ``changes`` set past :class:`TaskConfig`'s checks, which
    reject a NaN: the row kernels must still agree with the scalar code."""
    cfg = replace(cfg)
    for name, value in changes.items():
        object.__setattr__(cfg, name, value)
    return cfg


# the evade angle tolerances the controller tests run at: the default, zero,
# a wide one, a negative one (no gap within it) and NaN
TOLERANCES = (
    *(replace(CFG, evade_angle_tol=tol) for tol in (0.0, 0.3, -0.01)),
    past_checks(CFG, evade_angle_tol=math.nan),
)


def tie_states():
    """Robots at the origin heading 0.0 or -0.0 with the obstacle exactly on
    the robot's perpendicular (infront margin +-0.0) or exactly on its
    heading line (side cross product +-0.0), near and far.  The obstacle
    coordinate the tie needs is 0.0 or -0.0, so both zeros occur."""
    for theta in (0.0, -0.0):
        robot = RobotState(0.0, 0.0, theta, 0.12)
        for zero in (0.0, -0.0):
            for offset in (-0.3, -0.1, 0.1, 0.3, 0.6):
                for heading in (math.pi, 0.5 * math.pi, -0.5 * math.pi):
                    yield robot, ObstacleState(zero, offset, heading, 0.1)
                    yield robot, ObstacleState(offset, zero, heading, 0.1)


def threshold_states(cfg):
    """Robots whose orientation gap lies at and beside each hold threshold,
    for either turn sign, with the obstacle close ahead on that sign's side."""
    tol = cfg.evade_angle_tol
    gaps = sorted({*GAPS, *([-tol] if math.isfinite(tol) else [])})
    for sign in (1, -1):
        for gap in gaps:
            for theta in headings_at_gap(gap, sign, path_heading(cfg.start, cfg.goal)):
                x, y = (0.1 * heading_vector(theta + sign * 0.6)).tolist()
                yield RobotState(0.0, 0.0, theta, 0.12), ObstacleState(x, y, math.pi, 0.1)


@pytest.mark.parametrize("cfg", [CFG, *TILTED, *TOLERANCES])
def test_safe_controller_bit_equal_to_array_reference(cfg):
    ctl, ref = SafeController(cfg), SafeController(cfg)
    rng = np.random.default_rng(607)
    tracked = 0
    # states the shipped controller decides without computing the gap (the
    # obstacle behind an evading robot), and evading states the exit margin
    # keeps evading (gap in (R, R + exit_margin])
    evading_behind = evading_in_margin = 0
    for robot, obstacle, _ in random_step_states(cfg, rng, 10_000):
        ctl._evading = ref._evading = bool(rng.random() < 0.3)
        if ctl.evading and not infront(robot, obstacle):
            evading_behind += 1
        elif ctl.evading:
            gap = mindistance(robot, obstacle, cfg.dt, cfg.lookahead)
            evading_in_margin += cfg.danger_radius < gap <= cfg.danger_radius + ctl.cfg.exit_margin
        got, want = ctl(robot, obstacle), safe_call_ref(ref, robot, obstacle)
        assert np.array_equal(bits(got), bits(want)), (robot, obstacle)
        assert ctl.evading == ref.evading
        tracked += not ctl.evading
    assert tracked > 5_000
    assert evading_behind >= 200 and evading_in_margin >= 10
    # the robot exactly at the goal: no direction to the target, the path heading
    goal = RobotState(cfg.goal[0], cfg.goal[1], 0.3, 0.1)
    far = ObstacleState(cfg.goal[0] + 5.0, cfg.goal[1], 0.0, 0.0)
    assert ctl(goal, far) == safe_call_ref(ref, goal, far)
    # the ties and the hold thresholds, from either mode
    zeros, turns = set(), set()
    for robot, obstacle in [*tie_states(), *threshold_states(cfg)]:
        rel_x, rel_y = obstacle.x - robot.x, obstacle.y - robot.y
        cross = math.cos(robot.theta) * rel_y - math.sin(robot.theta) * rel_x
        for name, value in (("margin", infront_margin(robot, obstacle)), ("cross", cross)):
            if value == 0.0:
                zeros.add((name, math.copysign(1.0, value)))
        for mode in (False, True):
            ctl._evading = ref._evading = mode
            got, want = ctl(robot, obstacle), safe_call_ref(ref, robot, obstacle)
            assert np.array_equal(bits(got), bits(want)), (robot, obstacle, mode)
            assert ctl.evading == ref.evading
            if ctl.evading:
                turns.add(0.0 if got[1] == 0.0 else math.copysign(1.0, got[1]))
    assert zeros == {(name, s) for name in ("margin", "cross") for s in (1.0, -1.0)}
    assert turns == {0.0, 1.0, -1.0}  # evading rows hold, turn left and turn right


def test_sample_obstacle_respects_constraints():
    rng = np.random.default_rng(3)
    for _ in range(200):
        o = sample_obstacle(CFG, rng)
        assert CFG.obstacle_region.contains([o.x, o.y])
        assert math.hypot(o.x - CFG.start[0], o.y - CFG.start[1]) > CFG.danger_radius
        assert CFG.obstacle_speed_range[0] <= o.v <= CFG.obstacle_speed_range[1]
        assert -math.pi <= o.theta <= math.pi


def test_task_config_json_roundtrip(tmp_path):
    cfg = TaskConfig()
    path = tmp_path / "task.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    loaded = config_from_dict(json.loads(path.read_text()), TaskConfig)
    assert loaded == cfg


def test_task_config_validation():
    with pytest.raises(ValueError):
        TaskConfig(dt=0.0)
    with pytest.raises(ValueError):
        TaskConfig(start=(0.0, 0.0), goal=(0.0, 0.0))
    with pytest.raises(ValueError):
        TaskConfig(k_max=0)


# ---------------------------------------------------------------------------
# Row-wise kernels and the controller's array method against the scalar
# functions they repeat, bit for bit
# ---------------------------------------------------------------------------


def test_row_kernels_bit_equal_to_scalar_functions():
    rng = np.random.default_rng(609)
    special = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -3 * math.pi, 1e-300, -1e-300]
    angles = np.concatenate([special, rng.uniform(-20.0, 20.0, 20_000)])
    assert np.array_equal(bits(_wrap_angles(angles)), bits([wrap_angle(a) for a in angles]))
    cos, sin = _cos_sin(angles.reshape(-1, 2))
    assert np.array_equal(bits(cos.ravel()), bits([math.cos(a) for a in angles]))
    assert np.array_equal(bits(sin.ravel()), bits([math.sin(a) for a in angles]))
    values = np.concatenate([[0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0], angles])
    for lo, hi in ((0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0), (-2.0, 3.0)):
        want = [min(max(v, lo), hi) for v in values.tolist()]
        assert np.array_equal(bits(_clamp_rows(values, lo, hi)), bits(want)), (lo, hi)


_coords = st.floats(-2.0, 2.0)
_angles = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-4.0, 4.0))
_speeds = st.one_of(st.just(0.0), st.floats(0.0, 0.3))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    rows=st.lists(
        st.tuples(_coords, _coords, _angles, _speeds, _coords, _coords, _angles, _speeds, st.booleans()),
        min_size=1,
        max_size=40,
    ),
    grid=st.sampled_from([(CFG.dt, CFG.lookahead), (0.1, 0.55), (0.5, 0.2)]),
)
def test_min_gaps_bit_equal_to_mindistance(rows, grid):
    states = np.array([row[:8] for row in rows])
    coincident = np.array([row[8] for row in rows])
    states[coincident, 4:6] = states[coincident, 0:2]
    robot, obstacle = states[:, :4], states[:, 4:]
    got = _min_gaps(
        obstacle[:, :2] - robot[:, :2], _cos_sin(states[:, 2::4]), states[:, 3::4], _time_grid(*grid)
    )
    want = [
        mindistance(RobotState(*r), ObstacleState(*o), *grid)
        for r, o in zip(robot.tolist(), obstacle.tolist())
    ]
    assert np.array_equal(bits(got), bits(want))


def near_encounters(cfg, rng, n):
    """Obstacles within a metre ahead of or beside the robot, so that the
    trigger, the sticky exit band and both turn signs all occur."""
    for robot, obstacle, raw in random_step_states(cfg, rng, n):
        reach = rng.uniform(0.0, 1.0)
        bearing = robot.theta + rng.uniform(-2.0, 2.0)
        close = ObstacleState(
            robot.x + reach * math.cos(bearing),
            robot.y + reach * math.sin(bearing),
            obstacle.theta,
            obstacle.v,
        )
        yield robot, (close if rng.random() < 0.7 else obstacle)


@pytest.mark.parametrize("cfg", [CFG, *TILTED, *TOLERANCES])
def test_safe_controller_batch_bit_equal_to_call(cfg):
    rng = np.random.default_rng(608)
    states = list(near_encounters(cfg, rng, 20_000))
    modes = rng.random(len(states)) < 0.5
    robot = np.array([[r.x, r.y, r.theta, r.v] for r, _ in states])
    obstacle = np.array([[o.x, o.y, o.theta, o.v] for _, o in states])
    want = []
    for (r, o), mode in zip(states, modes):
        ctl = SafeController(cfg)
        ctl._evading = bool(mode)
        want.append((*ctl(r, o), ctl.evading))
    want = np.array(want)
    batch = SafeController(cfg).batch
    cs = _cos_sin(np.stack((robot[:, 2], obstacle[:, 2]), axis=1))
    v, omega, evading = batch(robot, obstacle, modes, cs)
    assert np.array_equal(bits(v), bits(want[:, 0]))
    assert np.array_equal(bits(omega), bits(want[:, 1]))
    assert np.array_equal(evading, want[:, 2] == 1.0)
    assert 0.2 < evading.mean() < 0.8
    held = evading & (omega == 0.0)
    assert held.any() and (evading & (omega > 0)).any() and (evading & (omega < 0)).any()
    # the call leaves its arguments and the controller as they were
    again = batch(robot, obstacle, modes, cs)
    assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(again[:2], (v, omega)))


@pytest.mark.parametrize("cfg", [CFG, *TILTED])
def test_observe_rows_bit_equal_to_observe(cfg):
    rng = np.random.default_rng(610)
    states = list(near_encounters(cfg, rng, 5_000))
    # the robot exactly at the start, beyond either end of the path and at the goal
    for x, y in (cfg.start, cfg.goal, (cfg.start[0] - 1.0, 0.3), (cfg.goal[0] + 1.0, -0.3)):
        states.append((RobotState(x, y, 0.4, 0.1), states[0][1]))
    robot = np.array([[r.x, r.y, r.theta, r.v] for r, _ in states])
    obstacle = np.array([[o.x, o.y, o.theta, o.v] for _, o in states])
    got = _observe_rows(robot, obstacle, cfg)
    assert got.shape == (len(states), 7) and got.flags.c_contiguous
    want = np.array([observe(r, o, cfg) for r, o in states])
    assert np.array_equal(bits(got), bits(want))


# ---------------------------------------------------------------------------
# Fixed-policy episodes in lockstep (EvasionEnv.returns) against step_raw
# ---------------------------------------------------------------------------


def safe_env(cfg=CFG, mask=STEP_MASK):
    return EvasionEnv(cfg, lambda: SafeController(cfg, ControllerConfig()), mask=mask)


def no_step_raw(monkeypatch):
    def fail(self, raw_action):
        raise AssertionError("the lockstep path called step_raw")

    monkeypatch.setattr(EvasionEnv, "step_raw", fail)


def test_lockstep_containment_violation_raises_at_the_step(monkeypatch):
    no_step_raw(monkeypatch)
    rng = np.random.default_rng(0)
    obstacles = [sample_obstacle(CFG, rng) for _ in range(LOCKSTEP_MIN_ROWS + 2)]
    env = safe_env(mask=IntervalBox.zero(2))
    steps = []

    def act(obs):
        # from step 3 on, a box without the zero offset (see
        # test_containment_violation_raises_at_the_step)
        steps.append(len(obs))
        if len(steps) == 4:
            env.mask = IntervalBox([0.1, 0.0], [0.2, 0.0])
        return np.zeros((len(obs), 2))

    match = r"step 3: applied offsets .*IntervalBox\(\[0\.1, 0\.2\]"
    with pytest.raises(ContainmentViolation, match=match) as exc:
        env.returns(obstacles, act)
    assert env.containment_violations == 1
    assert exc.value.row == 0
    # every row leaves the box at step 3, in the block and alone
    assert steps == [len(obstacles)] * 4 + [1] * len(obstacles)


def test_lockstep_nan_raw_action_raises(monkeypatch):
    rng = np.random.default_rng(1)
    obstacles = [sample_obstacle(CFG, rng) for _ in range(LOCKSTEP_MIN_ROWS)]
    # the observation of episode 5 at step 2
    ref = safe_env()
    obs = ref.reset(obstacles[5])
    for _ in range(2):
        obs = ref.step_raw(np.zeros(2))[0]
    target = obs.tobytes()

    def act(obs):
        raw = np.zeros((len(obs), 2))
        raw[[row.tobytes() == target for row in obs]] = (math.nan, 0.5)
        return raw

    # alone, episode 5 plays through step_raw; in lockstep, _RawActions names
    # the raw action and rollout_batch the step, as step_raw does
    with pytest.raises(ValueError, match=r"^step 2: raw action \[nan, 0\.5\] is not a number$"):
        safe_env().returns(obstacles[5:6], act)
    no_step_raw(monkeypatch)
    env = safe_env()
    with pytest.raises(ValueError, match=r"^step 2: raw action \[nan, 0\.5\] is not a number$") as exc:
        env.returns(obstacles, act)
    assert env.containment_violations == 0
    assert exc.value.row == 5


_RAW = st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    raws=st.lists(st.tuples(_RAW, _RAW), min_size=1, max_size=12),
    warm=st.integers(0, 60),
    horizon=st.sampled_from([None, 1, 2]),
    lower=st.tuples(st.floats(-0.2, 0.1), st.floats(-0.5, 0.2)),
    widths=st.tuples(st.floats(0.0, 0.15), st.floats(0.0, 0.6)),
)
def test_lockstep_step_equals_step_raw_row_by_row(seed, raws, warm, horizon, lower, widths):
    # each row plays `warm` random raw actions under STEP_MASK, then its raw
    # action of `raws` at every later step under a box that may lack the zero
    # offset, so that the actuator clamp can push the applied offset out of
    # it; with `horizon` 1 or 2 the first box step is the last one or the one
    # before it.  EvasionEnv.returns runs these rows through rollout_batch
    # from LOCKSTEP_MIN_ROWS on; here they run so at every row count.
    cfg = CFG if horizon is None else replace(CFG, k_max=warm + horizon)
    rng = np.random.default_rng(seed)
    obstacles = [sample_obstacle(cfg, rng) for _ in raws]
    warmup = rng.uniform(-1.0, 1.0, (len(raws), warm, 2))
    box = IntervalBox(lower, np.add(lower, widths))

    # the step_raw loops: each step's (state, safe control, applied control,
    # reward), then the final state or the step of the containment violation;
    # `script` maps each observation to its row, step and raw action
    script, want = {}, []
    for i, (obstacle, raw) in enumerate(zip(obstacles, raws)):
        env = safe_env(cfg)
        obs, steps, end, done = env.reset(obstacle), [], None, False
        while not done:
            k = env._k
            a = warmup[i, k] if k < warm else np.array(raw)
            env.mask = STEP_MASK if k < warm else box
            script[obs.tobytes()] = (i, k, a)
            r, o = env._robot, env._obstacle
            state = (r.x, r.y, r.theta, r.v, o.x, o.y, o.theta, o.v)
            try:
                obs, reward_k, done, info = env.step_raw(a)
            except ContainmentViolation:
                end = k
                break
            steps.append((state, info["safe_control"], info["applied"], reward_k))
        want.append((steps, end if end is not None else env._robot))

    lock = safe_env(cfg)
    calls, unknown = [], []

    def act(obs):
        keys = [script.get(row.tobytes()) for row in obs]
        unknown.extend(j for j, key in enumerate(keys) if key is None)
        keys = [key for key in keys if key is not None]
        calls.extend(keys)
        ks = {k for _, k, _ in keys}
        assert len(ks) <= 1  # every block call is at one step
        lock.mask = STEP_MASK if ks and ks.pop() < warm else box
        return np.array([a for _, _, a in keys]).reshape(-1, 2)

    source = EvasionSource(cfg, lock.controller_factory, agent=evasion._RawActions(lock, act))
    got, error = {}, None
    try:
        for i, trace in source.rollout_batch([(o.x, o.y, o.theta, o.v) for o in obstacles]):
            got[i] = trace
    except ContainmentViolation as exc:
        error = exc
    # every lockstep observation is one of step_raw's
    assert not unknown
    last_call = {}
    for i, k, _ in calls:
        last_call[i] = max(k, last_call.get(i, k))
    failed = [i for i, (_, end) in enumerate(want) if isinstance(end, int)]
    for i, (steps, end) in enumerate(want):
        if isinstance(end, int):
            # it left the box at the same step: the agent's last call, no trace
            assert i not in got and last_call[i] == end, i
            continue
        trace = got[i]
        assert trace.n_steps == len(steps), i
        rows = trace.rows
        assert np.array_equal(bits(rows[:, :8]), bits([s for s, _, _, _ in steps])), i
        safe = rows[:, evasion.COL_SAFE_V : evasion.COL_SAFE_W + 1]
        assert np.array_equal(bits(safe), bits([u for _, u, _, _ in steps])), i
        applied = rows[:, evasion.COL_CMD_V : COL_CMD_W + 1]
        assert np.array_equal(bits(applied), bits([a for _, _, a, _ in steps])), i
        rewards = evasion._trace_rewards(trace, cfg)
        assert np.array_equal(bits(rewards), bits([r for _, _, _, r in steps])), i
        f = trace.final_robot
        final = [f.x, f.y, f.theta, f.v]
        assert np.array_equal(bits(final), bits([end.x, end.y, end.theta, end.v])), i
        at_goal = math.hypot(end.x - cfg.goal[0], end.y - cfg.goal[1]) <= cfg.goal_radius
        assert trace.termination == ("goal" if at_goal else "horizon"), i
    if failed:
        # the lowest row that left the box is the one raised, at its step
        assert error is not None and error.row == failed[0]
        assert str(error).startswith(f"step {want[failed[0]][1]}: ")
    else:
        assert error is None and len(got) == len(raws)


# ---------------------------------------------------------------------------
# The lockstep control step
# ---------------------------------------------------------------------------

CONTROLS_MASK = IntervalBox([-0.05, -0.8], [0.05, 0.6])


def control_rows(rng, n):
    """``n`` trace rows with the robot near the path, heading anywhere, and
    an obstacle drawn by :func:`sample_obstacle` (so some rows are near it),
    their controls NaN until :func:`evasion._controls` writes them."""
    rows = np.full((n, 12), math.nan)
    rows[:, 0] = rng.uniform(-0.45, 0.45, n)
    rows[:, 1] = rng.uniform(-0.3, 0.3, n)
    rows[:, 2] = rng.uniform(-math.pi, math.pi, n)
    rows[:, 3] = rng.uniform(0.0, 0.2, n)
    rows[:, 4:8] = [tuple(vars(sample_obstacle(CFG, rng)).values()) for _ in range(n)]
    return rows


def call_controls(rows, evading, noise, agent, marked=None):
    """:func:`evasion._controls` at step 0 under ``SafeController.batch``,
    in place on ``rows``; returns the mode after the step."""
    state = evasion._row_views(rows)[0]
    mode = evading.copy()
    cs = _cos_sin(state[:, :, 2])
    batch = SafeController(CFG, ControllerConfig()).batch
    bounds = evasion._actuator_bounds(CFG)
    evasion._controls(0, rows, state, evading, mode, cs, noise, batch, agent, bounds, marked)
    return mode


# a non-finite state entry: NaN anywhere, or an obstacle infinitely far off
# (an infinite heading fails in _cos_sin, before the step; an infinite speed
# makes numpy warn before the step's check raises)
_NON_FINITE = st.one_of(
    st.tuples(st.integers(0, 7), st.just(math.nan)),
    st.tuples(st.sampled_from([4, 5]), st.sampled_from([math.inf, -math.inf])),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    with_agent=st.booleans(),
    mixed=st.booleans(),
    with_noise=st.booleans(),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 11), _NON_FINITE)),
)
def test_controls_of_each_row_alone_equal_the_block_call(
    seed, n, with_agent, mixed, with_noise, bad
):
    # the contract rollout_batch's retry of a failed block call relies on: a
    # row slice of every argument gives that slice's result, and a row with a
    # non-finite state fails in the block and alone, while every other row
    # passes alone.  In a block that mixes rows the agent acts on with rows
    # it does not, each unmarked row is bit for bit as without the agent
    rng = np.random.default_rng(seed)
    rows = control_rows(rng, n)
    evading = rng.random(n) < 0.5
    noise = rng.uniform(-0.05, 0.05, (n, 2)) if with_noise else None
    marked = rng.random(n) < 0.5 if mixed else None
    agent = None
    if with_agent:
        params = init_policy(7, 2, PpoConfig(hidden=(16, 16)), rng)
        params.policy.weights[-1][...] *= 300.0  # raw actions across (-1, 1)
        agent = MaskedPolicy(params, CONTROLS_MASK, CFG)
    block = rows.copy()
    mode = call_controls(block, evading, noise, agent, marked)
    assert np.isfinite(block).all()
    if marked is not None:
        plain = rows.copy()
        assert np.array_equal(call_controls(plain, evading, noise, None), mode)
        assert np.array_equal(bits(block[~marked]), bits(plain[~marked]))
        if with_agent and marked.any():  # the agent moved some marked row
            assert not np.array_equal(bits(block[marked]), bits(plain[marked]))
    failing = None
    if bad is not None:
        failing, (column, value) = bad[0] % n, bad[1]
        rows[failing, column] = value
        with pytest.raises(ValueError, match=r"^step 0: non-finite control or state$"):
            call_controls(rows.copy(), evading, noise, agent, marked)
    for j in range(n):
        s = slice(j, j + 1)
        row = rows[s].copy()
        xi = None if noise is None else noise[s]
        alone = evading[s], xi, agent, None if marked is None else marked[s]
        if j == failing:
            with pytest.raises(ValueError, match=r"^step 0: non-finite control or state$"):
                call_controls(row, *alone)
            continue
        # states untouched; safe, applied and mode bits as in the block
        assert call_controls(row, *alone)[0] == mode[j], j
        assert np.array_equal(bits(row), bits(block[s])), j
