import json
import math

import numpy as np
import pytest

from saferl.boxes import IntervalBox
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import (
    COL_CMD_W,
    COL_DTHETA,
    COL_SIGN,
    EpisodeTrace,
    EvasionEnv,
    EvasionSource,
    ObstacleState,
    RobotState,
    TaskConfig,
    classify_encounter,
    delta_theta,
    episode_robustness,
    evade,
    infront,
    infront_margin,
    mindistance,
    observe,
    perform,
    reward,
    safety_formula,
    safety_predicates,
    sample_obstacle,
    unicycle_step,
    wrap_angle,
)
from saferl.pipeline import config_from_dict, config_to_dict
from saferl.stl import robustness as stl_robustness
from saferl.stl import satisfies

CFG = TaskConfig()


def make_safe_rows(n, robot_xy=(0.0, 0.0)):
    """Rows with the obstacle far behind the robot: trigger never active."""
    rows = np.zeros((n, 17))
    rows[:, 0] = robot_xy[0]
    rows[:, 1] = robot_xy[1]
    rows[:, 2] = 0.0  # heading +x
    rows[:, 3] = 0.1
    rows[:, 4] = robot_xy[0] - 5.0  # obstacle well behind
    rows[:, 5] = robot_xy[1]
    rows[:, 6] = math.pi
    rows[:, 7] = 0.05
    rows[:, 10] = 1.0
    rows[:, 11] = -1.0
    return rows


def make_trace(rows, final_robot, termination="horizon"):
    return EpisodeTrace(
        rows=rows,
        final_robot=final_robot,
        final_obstacle=ObstacleState(-5.0, 0.0, math.pi, 0.05),
        dt=CFG.dt,
        termination=termination,
        start=CFG.start,
        goal=CFG.goal,
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
# Episode scoring
# ---------------------------------------------------------------------------


def test_episode_robustness_violation_scores_minus_one():
    rows = make_safe_rows(10)
    # one step with the conflict active and an inadmissible command
    rows[4, 4] = rows[4, 0] + 0.1  # obstacle right in front
    rows[4, 5] = rows[4, 1]
    rows[4, 6] = math.pi
    rows[4, COL_SIGN] = 1.0
    rows[4, COL_DTHETA] = -1.0
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
        episode_robustness(make_trace(np.zeros((0, 17)), RobotState(0, 0, 0, 0)), CFG)


def test_measure_sign_matches_formula(tmp_path):
    # Across deterministic and strongly perturbed episodes, the scalar
    # measure is >= 0 exactly when the formula holds on the trace.
    cfg = CFG
    source = EvasionSource(cfg, lambda: SafeController(cfg, ControllerConfig()))
    rng = np.random.default_rng(5)
    big = IntervalBox([-0.01, -0.08], [0.01, 0.08])  # large enough to cause violations
    formula = safety_formula()
    seen = set()
    for i in range(30):
        ic = source.sample_initial(rng)
        if i % 2:
            prng = np.random.default_rng(i)
            trace = source.rollout(ic, lambda: big.sample(prng))
        else:
            trace = source.rollout(ic)
        rho = episode_robustness(trace, cfg)
        table = safety_predicates(cfg)
        sat = satisfies(formula, trace.signal(), 0, table)
        assert (rho >= 0) == sat
        assert (stl_robustness(formula, trace.signal(), 0, table) >= 0) == sat
        seen.add(sat)
    assert seen == {True, False}, "expected both safe and violating episodes"


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
    env = EvasionEnv(CFG, lambda: SafeController(CFG, ControllerConfig()))
    with pytest.raises(RuntimeError):
        env.step_raw([0.0, 0.0])  # not reset
    env.reset_random(np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        env.step_raw([0.0, 0.0])  # no mask installed
    masked = EvasionEnv(
        CFG, lambda: SafeController(CFG, ControllerConfig()), mask=IntervalBox.zero(2)
    )
    obs = masked.reset_random(np.random.default_rng(0))
    assert obs.shape == (7,)
    total_steps = 0
    total_reward = 0.0
    done = False
    while not done:
        obs, r, done, info = masked.step_raw([0.4, -0.4])  # degenerate mask: safe action
        assert 0.0 <= info["action_diff"] <= 1.0
        total_reward += r
        total_steps += 1
    assert masked.containment_violations == 0
    assert total_reward == 0.0  # playing the safe control exactly scores zero
    assert total_steps <= CFG.k_max
    trace = masked.trace()
    assert trace.n_steps == total_steps
    # degenerate mask: applied control equals the safe control bit-exactly
    assert np.array_equal(trace.rows[:, 8:10], trace.rows[:, 12:14])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("k,robot_x,robot_y,robot_theta")
    assert len(lines) == total_steps + 1


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
