import math

import numpy as np
import pytest

from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import (
    EvasionSource,
    ObstacleState,
    RobotState,
    TaskConfig,
    classify_encounter,
    delta_theta,
    episode_robustness,
    infront,
    infront_margin,
    mindistance,
    safety_predicates,
)

TASK = TaskConfig()
CTRL = ControllerConfig()


def fresh():
    return SafeController(TASK, CTRL)


def far_obstacle():
    return ObstacleState(-5.0, 0.0, math.pi, 0.05)


def test_tracking_on_path_aligned():
    robot = RobotState(TASK.start[0], TASK.start[1], 0.0, 0.12)
    v, omega = fresh()(robot, far_obstacle())
    assert v == pytest.approx(CTRL.cruise_speed)
    assert omega == pytest.approx(0.0, abs=1e-9)


def test_tracking_corrects_heading_toward_path():
    robot = RobotState(-0.2, 0.3, 0.0, 0.12)  # above the path, heading +x
    _, omega = fresh()(robot, far_obstacle())
    assert omega < 0.0  # steer back down toward the segment
    assert abs(omega) <= CTRL.track_turn_cap


def test_case1_trigger_turns_positive_within_bound():
    robot = RobotState(0.0, 0.0, 0.0, 0.12)
    obstacle = ObstacleState(0.25, 0.05, math.pi, 0.1)  # close, ahead, slightly left
    assert infront(robot, obstacle)
    assert mindistance(robot, obstacle, TASK.dt, TASK.lookahead) <= TASK.danger_radius
    assert classify_encounter(robot, obstacle) == (1, 1)
    v, omega = fresh()(robot, obstacle)
    assert omega > 0.0
    assert abs(omega) <= TASK.evade_rate_bound
    assert v == pytest.approx(CTRL.cruise_speed)


def test_hold_near_zero_after_reaching_perpendicular():
    # heading already past the perpendicular for a right turn (sign +1)
    robot = RobotState(0.0, 0.0, math.pi / 2, 0.12)
    obstacle = ObstacleState(0.05, 0.3, -math.pi / 2, 0.1)  # ahead along +y
    assert infront(robot, obstacle)
    assert mindistance(robot, obstacle, TASK.dt, TASK.lookahead) <= TASK.danger_radius
    _, sign = classify_encounter(robot, obstacle)
    assert delta_theta(robot.theta, sign, 0.0) >= 0.0
    _, omega = fresh()(robot, obstacle)
    assert abs(omega) <= 0.01


def test_output_always_within_actuator_limits():
    rng = np.random.default_rng(4)
    ctrl = fresh()
    for _ in range(500):
        robot = RobotState(
            float(rng.uniform(-1.6, 1.6)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0, 0.2)),
        )
        obstacle = ObstacleState(
            float(rng.uniform(-1.6, 1.6)),
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0, 0.2)),
        )
        v, omega = ctrl(robot, obstacle)
        assert TASK.v_min <= v <= TASK.v_max
        assert abs(omega) <= TASK.omega_max


def test_evade_consistency_over_random_episodes():
    # At every step where the monitor antecedent holds, the emitted command
    # satisfies the evade predicate (the monitor's predicate columns).
    source = EvasionSource(TASK, fresh)
    table = safety_predicates(TASK)
    rng = np.random.default_rng(10)
    triggered_steps = 0
    for _, trace in source.rollout_batch([source.sample_initial(rng) for _ in range(40)]):
        states = trace.signal().states
        triggered = (table.evaluate("infront", states) >= 0) & (table.evaluate("near", states) >= 0)
        triggered_steps += int(triggered.sum())
        assert np.all(table.evaluate("evade", states)[triggered] > 0)
    assert triggered_steps > 0


def test_unperturbed_compliance_500_episodes():
    source = EvasionSource(TASK, fresh)
    rng = np.random.default_rng(123)
    worst = math.inf
    for _, trace in source.rollout_batch([source.sample_initial(rng) for _ in range(500)]):
        rho = episode_robustness(trace, TASK)
        worst = min(worst, rho)
        assert rho >= 0.0
    assert worst >= 0.0


def test_lipschitz_sanity_away_from_switching_surfaces():
    # Bounded output change under small state perturbation, evaluated away
    # from the mode/tie boundaries; documented bound: |du| <= 100 * |dx|.
    rng = np.random.default_rng(77)
    eps = 1e-6
    bound = 100.0
    checked = 0
    while checked < 60:
        robot = RobotState(
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-0.8, 0.8)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0, 0.2)),
        )
        obstacle = ObstacleState(
            float(rng.uniform(-1.0, 1.0)),
            float(rng.uniform(-0.8, 0.8)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(0.05, 0.15)),
        )
        gap = mindistance(robot, obstacle, TASK.dt, TASK.lookahead)
        margin = infront_margin(robot, obstacle)
        h = (math.cos(robot.theta), math.sin(robot.theta))
        cross = h[0] * (obstacle.y - robot.y) - h[1] * (obstacle.x - robot.x)
        _, sign = classify_encounter(robot, obstacle)
        dth = delta_theta(robot.theta, sign, 0.0)
        near_boundary = (
            abs(gap - TASK.danger_radius) < 1e-3
            or abs(gap - TASK.danger_radius - CTRL.exit_margin) < 1e-3
            or abs(margin) < 1e-3
            or abs(cross) < 1e-3
            or abs(dth) < 2e-3
            or abs(abs(dth) - TASK.evade_angle_tol) < 2e-3
            or abs(abs(dth) - math.pi) < 1e-3
            or math.hypot(robot.x - TASK.goal[0], robot.y - TASK.goal[1]) < 0.1
        )
        if near_boundary:
            continue
        base = np.array(fresh()(robot, obstacle))
        for axis in range(3):
            delta = [0.0, 0.0, 0.0]
            delta[axis] = eps
            moved = RobotState(
                robot.x + delta[0], robot.y + delta[1], robot.theta + delta[2], robot.v
            )
            out = np.array(fresh()(moved, obstacle))
            assert np.all(np.abs(out - base) <= bound * eps + 1e-12)
        checked += 1
