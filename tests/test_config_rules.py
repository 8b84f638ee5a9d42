"""Every rule a config dataclass checks, one bad value each.

Each case is built twice: directly, where the dataclass raises
``ValueError``, and through :func:`config_from_dict` from the JSON form of
the whole pipeline configuration, where it surfaces as ``PipelineError``.
Both messages start ``<Class>.<field> must be``.
"""

import json
import math
import re

import pytest

from saferl.boxes import IntervalBox
from saferl.cli import main as cli_main
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import TaskConfig
from saferl.pipeline import (
    ExpandConfig,
    HistogramBenchmark,
    HistogramConfig,
    PipelineConfig,
    PipelineError,
    TrainingConfig,
    VerifyConfig,
    config_from_dict,
)
from saferl.ppo import PpoConfig

# where each class sits in the pipeline configuration's JSON form
SECTIONS = {
    TaskConfig: ("task",),
    ControllerConfig: ("controller",),
    PpoConfig: ("training", "ppo"),
    VerifyConfig: ("verification",),
    ExpandConfig: ("expansion",),
    TrainingConfig: ("training",),
    HistogramConfig: ("histogram",),
    HistogramBenchmark: ("histogram", "benchmark"),
}

_TASK_FLOATS = (
    "dt",
    "danger_radius",
    "lookahead",
    "goal_radius",
    "v_min",
    "v_max",
    "omega_max",
    "evade_rate_bound",
    "evade_angle_tol",
    "evade_rate_tol",
    "r_diff",
)

RULES = [
    # TaskConfig: every non-box field finite
    *((TaskConfig, name, math.nan) for name in _TASK_FLOATS),
    (TaskConfig, "dt", math.inf),
    (TaskConfig, "start", (math.nan, 0.0)),
    (TaskConfig, "goal", (0.4, math.inf)),
    (TaskConfig, "obstacle_speed_range", (0.05, math.nan)),
    # TaskConfig: the range rules
    (TaskConfig, "dt", 0.0),
    (TaskConfig, "k_max", 0),
    (TaskConfig, "danger_radius", 0.0),
    (TaskConfig, "lookahead", -1.0),
    (TaskConfig, "goal_radius", 0.0),
    (TaskConfig, "v_min", 0.5),
    (TaskConfig, "omega_max", 0.0),
    (TaskConfig, "goal", (-0.4, 0.03)),
    (TaskConfig, "obstacle_speed_range", (-0.1, 0.1)),
    (TaskConfig, "obstacle_speed_range", (0.2, 0.1)),
    (TaskConfig, "obstacle_region", IntervalBox([0.1], [0.3])),
    # TaskConfig: the region reaches beyond danger_radius of start
    (TaskConfig, "obstacle_region", IntervalBox([-0.5, -0.1], [-0.3, 0.1])),
    # ControllerConfig and HistogramBenchmark: every field finite
    (ControllerConfig, "heading_gain", math.nan),
    (ControllerConfig, "cruise_speed", math.inf),
    (ControllerConfig, "evade_turn_rate", -math.inf),
    (ControllerConfig, "exit_margin", math.nan),
    (ControllerConfig, "track_turn_cap", math.inf),
    (ControllerConfig, "target_lookahead", math.nan),
    (HistogramBenchmark, "agent_mean", math.nan),
    (HistogramBenchmark, "agent_std", -math.inf),
    (HistogramBenchmark, "safe_mean", math.inf),
    (HistogramBenchmark, "safe_std", math.nan),
    # PpoConfig's sixteen rules
    *(
        (PpoConfig, name, 0)
        for name in ("steps", "n_steps", "minibatch_size", "epochs", "eval_episodes")
    ),
    *((PpoConfig, name, 0.0) for name in ("learning_rate", "clip_range", "adam_eps")),
    (PpoConfig, "gamma", 1.5),
    (PpoConfig, "gae_lambda", -0.1),
    *((PpoConfig, name, math.inf) for name in ("vf_coef", "ent_coef", "log_std_init")),
    (PpoConfig, "max_grad_norm", math.nan),
    (PpoConfig, "hidden", (64, 0)),
    (PpoConfig, "log_std_min", 2.0),
    # VerifyConfig
    (VerifyConfig, "n_samples", 0),
    (VerifyConfig, "seed", -1),
    (VerifyConfig, "epsilon", 1.5),
    (VerifyConfig, "jobs", 2),
    # ExpandConfig
    (ExpandConfig, "e_init", IntervalBox([0.0, 0.0, 0.0], [0.1, 0.1, 0.1])),
    (ExpandConfig, "delta_f", (1.0, 1.0, 1.0)),
    (ExpandConfig, "delta_f", (math.nan, 1.0)),
    (ExpandConfig, "delta_f", (10.0, -1.0)),
    (ExpandConfig, "max_iters", 0),
    (ExpandConfig, "seed", -1),
    # TrainingConfig
    (TrainingConfig, "pilot_episodes", 0),
    (TrainingConfig, "seed", -1),
    (TrainingConfig, "reward_target", 0.0),
    (TrainingConfig, "reward_target", math.inf),
    # HistogramConfig
    (HistogramConfig, "n_samples", 0),
    (HistogramConfig, "seed", -1),
]


def _json(value):
    if isinstance(value, IntervalBox):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


def _loaded(cls, name, value) -> dict:
    data = {name: _json(value)}
    for key in reversed(SECTIONS[cls]):
        data = {key: data}
    return data


@pytest.mark.parametrize(
    "cls, name, value", RULES, ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in RULES]
)
def test_every_config_rule_rejects_a_bad_value(cls, name, value):
    named = "^" + re.escape(f"{cls.__name__}.{name} must be ")
    with pytest.raises(ValueError, match=named):
        cls(**{name: value})
    with pytest.raises(PipelineError, match=named):
        config_from_dict(_loaded(cls, name, value))


# a JSON integer too large for a float, in a field that must be finite
_HUGE = 10**400
HUGE_RULES = [
    (TaskConfig, "dt", _HUGE),
    (TaskConfig, "start", (-_HUGE, 0)),
    (ControllerConfig, "cruise_speed", _HUGE),
    (HistogramBenchmark, "agent_mean", -_HUGE),
    (PpoConfig, "learning_rate", _HUGE),
    (PpoConfig, "vf_coef", _HUGE),
    (PpoConfig, "max_grad_norm", _HUGE),
    (ExpandConfig, "delta_f", (1, _HUGE)),
    (TrainingConfig, "reward_target", _HUGE),
]


@pytest.mark.parametrize(
    "cls, name, value", HUGE_RULES, ids=[f"{c.__name__}.{n}" for c, n, _ in HUGE_RULES]
)
def test_an_integer_too_large_for_a_float_is_not_finite(cls, name, value):
    # it ended in numpy's "ufunc 'isfinite' not supported" TypeError or an
    # OverflowError, or passed a "finite and positive" rule
    named = "^" + re.escape(f"{cls.__name__}.{name} must be ") + r"(finite|a number)"
    with pytest.raises(ValueError, match=named):
        cls(**{name: value})
    with pytest.raises(PipelineError, match=named):
        config_from_dict(_loaded(cls, name, value))


def test_controller_turn_rate_is_checked_with_the_task():
    # it was checked only inside the first rollout, after --out existed,
    # and failed that rollout without naming the field
    named = "^" + re.escape("ControllerConfig.evade_turn_rate must be at most ")
    fast = ControllerConfig(evade_turn_rate=2.0)
    with pytest.raises(ValueError, match=named):
        PipelineConfig(controller=fast)
    with pytest.raises(ValueError, match=named):
        SafeController(TaskConfig(), fast)
    with pytest.raises(PipelineError, match=named):
        config_from_dict({"controller": {"evade_turn_rate": 2.0}})
    with pytest.raises(PipelineError, match=named):
        config_from_dict({"task": {"evade_rate_bound": 1.0}})
    edge = {"controller": {"evade_turn_rate": 1.0}, "task": {"evade_rate_bound": 1.0}}
    assert config_from_dict(edge).controller.evade_turn_rate == 1.0


_FAST = {"controller": {"evade_turn_rate": 2.0}}
_E_INIT_3D = {"expansion": {"e_init": {"lower": [0, 0, 0], "upper": [0.1, 0.1, 0.1]}}}
_BAD_BOX = {"lower": [1, 0], "upper": [0, 0]}


CLI_CASES = [
    (_FAST, ["verify-safe"], "ControllerConfig.evade_turn_rate must be "),
    (_FAST, ["expand"], "ControllerConfig.evade_turn_rate must be "),
    (_E_INIT_3D, ["verify-safe"], "ExpandConfig.e_init must be 2-D"),
    (_E_INIT_3D, ["expand"], "ExpandConfig.e_init must be 2-D"),
    ({"expansion": {"e_init": _BAD_BOX}}, ["print-config"], "ExpandConfig.e_init: lower bound"),
    ({"expansion": {"e_init": _BAD_BOX}}, ["expand"], "ExpandConfig.e_init: lower bound"),
    ({"task": {"obstacle_region": _BAD_BOX}}, ["print-config"], "TaskConfig.obstacle_region: "),
    ({"task": {"obstacle_region": _BAD_BOX}}, ["verify-safe"], "TaskConfig.obstacle_region: "),
    ({"task": {"obstacle_region": {"lower": ["a", 0], "upper": [0, 0]}}}, ["print-config"],
     "TaskConfig.obstacle_region: IntervalBox.lower must be"),
    ({"expansion": {"e_init": {"lower": [0, 0]}}}, ["expand"],
     "ExpandConfig.e_init: IntervalBox keys must be"),
    ({"controller": {"cruise_speed": _HUGE}}, ["print-config"],
     "ControllerConfig.cruise_speed must be finite, not 1000"),
    ({"task": {"dt": _HUGE}}, ["verify-safe"], "TaskConfig.dt must be finite, not 1000"),
    # stage overrides are checked as the fields they override
    ({}, ["histogram", "--n", "0"], "HistogramConfig.n_samples must be at least 1, not 0"),
    ({}, ["histogram", "--n", "-5"], "HistogramConfig.n_samples must be at least 1, not -5"),
    ({}, ["train", "--steps", "0"], "PpoConfig.steps must be at least 1, not 0"),
]


@pytest.mark.parametrize(
    "data, command, key", CLI_CASES, ids=[f"{' '.join(c)}: {k.strip()}" for _, c, k in CLI_CASES]
)
def test_cli_names_the_field_and_writes_nothing(tmp_path, capsys, data, command, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(data))
    out = tmp_path / "out"
    args = [*command, "--config", str(config)]
    if command[0] != "print-config":
        args += ["--out", str(out)]
    assert cli_main(args) == 2
    assert f"error: {key}" in capsys.readouterr().err
    assert not out.exists()
