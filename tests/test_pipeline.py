import json
import math
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from saferl import ppo
from saferl.boxes import IntervalBox
from saferl.cli import _build_parser
from saferl.cli import main as cli_main
from saferl.controller import SafeController
from saferl.evasion import LOCKSTEP_MIN_ROWS, ContainmentViolation, EvasionEnv, EvasionSource
from saferl.pipeline import (
    _agent_source,
    _persisted_expansion,
    _safe_factory,
    _safe_source,
    calibrate_reward_scale,
)
from saferl.pipeline import (
    ExpandConfig,
    HistogramConfig,
    PipelineConfig,
    PipelineError,
    TrainingConfig,
    VerifyConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    run_expand,
    run_histogram,
    run_train,
    run_verify_agent,
    run_verify_safe,
)
from saferl.ppo import MaskedPolicy, PpoConfig, init_policy, save_policy
from saferl.verify import RolloutFailure, _sample_inputs, derive_seed, probv, write_samples_csv


def tiny_config(**overrides) -> PipelineConfig:
    base = default_config()
    cfg = replace(
        base,
        verification=VerifyConfig(n_samples=3, epsilon=0.05, seed=101, jobs=1),
        expansion=ExpandConfig(
            e_init=IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3]),
            delta_f=(10.0, 1.0),
            max_iters=2,
            seed=202,
        ),
        training=TrainingConfig(
            ppo=PpoConfig(steps=512, n_steps=256, epochs=2, minibatch_size=64, eval_episodes=3),
            seed=303,
            pilot_episodes=2,
        ),
        histogram=HistogramConfig(n_samples=4, seed=404),
    )
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def test_config_dict_roundtrip():
    cfg = tiny_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_hash(cfg) == config_hash(config_from_dict(config_to_dict(cfg)))
    assert config_hash(cfg) != config_hash(default_config())
    # the defaults' hash, which every default-config manifest records
    assert config_hash(default_config()) == (
        "e4cb0e1207e4cdfbef5ad6667c23d8955db92334cba95a754e31ddac495bfe3c"
    )
    # the edges of PpoConfig's rules are valid; a gradient norm of 0 or
    # below means no clipping
    for ppo in (
        {"max_grad_norm": 0.0},
        {"max_grad_norm": -1.0},
        {"gamma": 0.0, "gae_lambda": 1.0},
        {"gamma": 1.0, "gae_lambda": 0.0},
        {"log_std_min": 0.5, "log_std_max": 0.5},
    ):
        assert config_from_dict({"training": {"ppo": ppo}}).training.ppo == PpoConfig(**ppo)


def test_config_rejects_unknown_keys():
    with pytest.raises(PipelineError):
        config_from_dict({"tusk": {}})
    with pytest.raises(PipelineError):
        config_from_dict({"verification": {"m_samples": 3}})
    with pytest.raises(PipelineError):
        config_from_dict({"task": {"no_such_key": 1}})
    with pytest.raises(PipelineError):
        config_from_dict({"training": {"ppo": {"hiden": [4]}}})


def test_print_config_cli(capsys):
    assert cli_main(["print-config"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert config_from_dict(data) == default_config()
    # every stage manifest records the pinned field
    assert data["verification"]["jobs"] == 1


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def test_verify_safe_stage_and_determinism(tmp_path):
    cfg = tiny_config()
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    report_a, paths_a = run_verify_safe(cfg, a_dir)
    report_b, paths_b = run_verify_safe(cfg, b_dir)
    assert report_a == report_b
    for key in ("report", "samples", "manifest"):
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()
    manifest = json.loads(paths_a["manifest"].read_text())
    assert manifest["stage"] == "verify_safe"
    assert manifest["config_sha256"] == config_hash(cfg)
    assert "numpy" in manifest["versions"]
    data = json.loads(paths_a["report"].read_text())
    assert data["n_samples"] == 3
    header = paths_a["samples"].read_text().splitlines()[0]
    assert header == "sample_index,seed,robustness,obstacle_x,obstacle_y,obstacle_theta,obstacle_v"


def test_verify_safe_seed_override_changes_samples(tmp_path):
    cfg = tiny_config()
    r1, _ = run_verify_safe(cfg, tmp_path / "x", seed=1)
    r2, _ = run_verify_safe(cfg, tmp_path / "y", seed=2)
    assert r1.robustnesses != r2.robustnesses


def assert_manifest_lists_paths(paths: dict) -> None:
    """The stage manifest lists exactly the returned artifacts, all written."""
    manifest = json.loads(paths["manifest"].read_text())
    names = sorted(p.name for key, p in paths.items() if key != "manifest")
    assert manifest["artifacts"] == names
    for name in names:
        assert (paths["manifest"].parent / name).exists()


def test_full_pipeline_end_to_end(tmp_path):
    cfg = tiny_config()
    out = tmp_path / "run"

    result, expand_paths = run_expand(cfg, out)
    assert result.verified_report.rho_star >= 0
    persisted = json.loads(expand_paths["expansion"].read_text())
    assert IntervalBox.from_dict(persisted["box"]) == result.box
    assert_manifest_lists_paths(expand_paths)

    _, safe_paths = run_verify_safe(cfg, out)
    used = json.loads(safe_paths["expansion"].read_text())
    assert IntervalBox.from_dict(used["expansion"]) == result.box
    assert set(safe_paths) == {"report", "samples", "expansion", "manifest"}
    assert_manifest_lists_paths(safe_paths)

    hist_summary, hist_paths = run_histogram(cfg, None, out)
    assert [k for k in hist_summary if k != "benchmark"] == ["safe", "perturbed"]
    assert set(hist_paths) == {"safe", "perturbed", "summary", "manifest"}
    assert_manifest_lists_paths(hist_paths)

    summary, train_paths = run_train(cfg, out)
    assert train_paths["policy"].exists()
    assert train_paths["sidecar"].exists()
    log_lines = train_paths["log"].read_text().strip().splitlines()
    assert log_lines[0].startswith("step,mean_reward,std_reward,action_diff")
    assert len(log_lines) == 1 + 2  # two updates at these settings
    assert (summary["updates"], summary["trained_steps"]) == (2, 512)
    assert summary["r_diff"] > 0
    assert set(train_paths) == {"policy", "sidecar", "log", "manifest"}
    assert_manifest_lists_paths(train_paths)

    report, agent_paths = run_verify_agent(cfg, train_paths["policy"], out)
    assert report.n_samples == 3
    assert report.rho_star >= 0  # masked agent stays admissible
    assert set(agent_paths) == {"report", "samples", "manifest"}
    assert_manifest_lists_paths(agent_paths)

    hist_summary, hist_paths = run_histogram(cfg, train_paths["policy"], out)
    for name in ("safe", "perturbed", "agent"):
        assert name in hist_summary
        assert hist_paths[name].exists()
        assert hist_summary[name]["n"] == 4
    assert "benchmark" in hist_summary
    assert json.loads(hist_paths["summary"].read_text()) == hist_summary
    assert_manifest_lists_paths(hist_paths)


def test_verification_stages_run_no_sample_one_by_one(tmp_path, monkeypatch):
    # probv steps every sample of the safe and the agent controller in
    # lockstep, at any sample count: with the one-sample rollout and the
    # controllers' per-row calls broken, the stages still pass and write the
    # same bytes
    cfg = tiny_config()
    a, b = tmp_path / "a", tmp_path / "b"
    run_expand(cfg, a)
    policy = run_train(cfg, a)[1]["policy"]
    shutil.copytree(a, b)

    def stages(out):
        return [
            run_verify_safe(cfg, out)[1],
            run_verify_agent(cfg, policy, out)[1],
            run_histogram(cfg, policy, out)[1],
        ]

    want = stages(a)

    def one_by_one(*args, **kwargs):
        raise AssertionError("a sample or a controller ran one row alone")

    monkeypatch.setattr(EvasionSource, "rollout", one_by_one)
    monkeypatch.setattr(SafeController, "__call__", one_by_one)
    got = stages(b)
    for paths_a, paths_b in zip(want, got):
        assert paths_a.keys() == paths_b.keys()
        for key, path in paths_a.items():
            assert path.read_bytes() == paths_b[key].read_bytes(), path.name


def test_train_refuses_without_verified_expansion(tmp_path):
    cfg = tiny_config()
    with pytest.raises(PipelineError, match="expand"):
        run_train(cfg, tmp_path)


def test_train_refuses_failed_expansion_report(tmp_path):
    cfg = tiny_config()
    out = tmp_path
    _, paths = run_expand(cfg, out)
    data = json.loads(paths["expansion"].read_text())
    rep = data["verified_report"]
    # a report with an unknown or a missing key is refused, naming the key
    missing = {k: v for k, v in rep.items() if k != "rho_star"}
    for bad, key in (({**rep, "passed": True}, "passed"), (missing, "rho_star")):
        paths["expansion"].write_text(json.dumps({**data, "verified_report": bad}))
        with pytest.raises(PipelineError, match=f"'verified_report'.*{key}"):
            run_train(cfg, out)
    rep["robustnesses"] = [-1.0] * rep["n_samples"]
    rep["rho_star"] = -1.0
    paths["expansion"].write_text(json.dumps(data))
    with pytest.raises(PipelineError, match="not verified"):
        run_train(cfg, out)


def test_degenerate_perturbation_matches_identity_agent(tmp_path):
    # Verifying the safe controller with a zero perturbation box equals
    # verifying an agent whose policy never moves off the safe control.
    cfg = tiny_config()
    (tmp_path / "safe").mkdir()
    (tmp_path / "safe" / "expansion.json").write_text(
        json.dumps({"box": IntervalBox.zero(2).to_dict()})
    )
    report_safe, _ = run_verify_safe(cfg, tmp_path / "safe")
    params = init_policy(7, 2, cfg.training.ppo, np.random.default_rng(0))
    for w in params.policy.weights:
        w[...] = 0.0
    for b in params.policy.biases:
        b[...] = 0.0
    policy_path = tmp_path / "identity.bin"
    save_policy(params, policy_path, meta={"mask": IntervalBox([-0.002, -0.01], [0.002, 0.01]).to_dict()})
    report_agent, _ = run_verify_agent(cfg, policy_path, tmp_path / "agent")
    assert report_agent.robustnesses == report_safe.robustnesses


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_config(tmp_path, cfg) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


def test_cli_verify_safe_pass_and_artifacts(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    code = cli_main(["verify-safe", "--config", cfg_path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "rho_star" in out
    assert (tmp_path / "o" / "verify_safe_report.json").exists()


def test_cli_verify_safe_failure_exit_code(tmp_path, capsys):
    # A persisted overly large perturbation box drives the verdict negative.
    cfg = tiny_config(verification=VerifyConfig(n_samples=6, epsilon=0.05, seed=11, jobs=1))
    out = tmp_path / "o"
    out.mkdir()
    (out / "expansion.json").write_text(
        json.dumps({"box": IntervalBox([-0.05, -0.8], [0.05, 0.8]).to_dict()})
    )
    cfg_path = write_config(tmp_path, cfg)
    code = cli_main(["verify-safe", "--config", cfg_path, "--out", str(out)])
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_cli_out_blocked_by_a_file_is_an_input_error(tmp_path, capsys, below):
    # an --out that is a file, or lies below one, cannot be made: exit 2
    # naming the directory, not a traceback, and the file stays as it was
    blocker = tmp_path / "F"
    blocker.write_text("x")
    out = blocker / "sub" if below else blocker
    capsys.readouterr()
    assert cli_main(["verify-safe", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot make output directory {out}: " in err and "Traceback" not in err, err
    assert blocker.read_text() == "x"


def test_cli_error_paths(tmp_path, capsys):
    missing = cli_main(["verify-safe", "--config", str(tmp_path / "nope.json")])
    assert missing == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["verify-safe", "--config", str(bad)]) == 2
    # a top level or a section that is not a JSON object
    for text in ('{"task": 5}', "[1, 2]", '{"training": {"ppo": [3]}}'):
        bad.write_text(text)
        capsys.readouterr()
        assert cli_main(["print-config", "--config", str(bad)]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
    # a value of the wrong JSON type; a bool is never a number
    for text in (
        '{"task": {"dt": "x"}}',
        '{"expansion": {"e_init": {"lower": [0]}}}',
        '{"training": {"ppo": {"hidden": 4}}}',
        '{"verification": {"n_samples": "5"}}',
        '{"task": {"k_max": true}}',
    ):
        bad.write_text(text)
        capsys.readouterr()
        assert cli_main(["print-config", "--config", str(bad)]) == 2
        assert "must be" in capsys.readouterr().err
    # rollouts run sequentially: the pinned jobs field takes no other value
    bad.write_text('{"verification": {"jobs": 4}}')
    capsys.readouterr()
    assert cli_main(["print-config", "--config", str(bad)]) == 2
    assert "jobs" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify-safe", "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    # an int is accepted where a float is declared
    bad.write_text('{"task": {"lookahead": 1}}')
    assert cli_main(["print-config", "--config", str(bad)]) == 0
    capsys.readouterr()
    # an obstacle region that is not 2-D, or that lies wholly within the
    # danger radius of the start, so that no obstacle can be drawn
    for task in ({"danger_radius": 0.9}, {"obstacle_region": {"lower": [0.1], "upper": [0.3]}}):
        bad.write_text(json.dumps({"task": task}))
        capsys.readouterr()
        assert cli_main(["verify-safe", "--config", str(bad), "--out", str(tmp_path / "r")]) == 2
        assert "obstacle_region" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # a PPO step count below 1 would divide by zero or train a window the
    # manifest does not record
    for key in ("steps", "n_steps", "minibatch_size", "epochs"):
        bad.write_text(json.dumps({"training": {"ppo": {key: 0}}}))
        capsys.readouterr()
        assert cli_main(["print-config", "--config", str(bad)]) == 2
        assert f"PpoConfig.{key}" in capsys.readouterr().err
    # training settings the train stage cannot honour: no evaluation episode
    # (a NaN mean return), no pilot episode, a reward target that is not
    # finite and positive (a reward paying for moves away from the goal), or
    # PPO settings that train garbage without an error
    for training, key in (
        ({"ppo": {"eval_episodes": 0}}, "PpoConfig.eval_episodes"),
        ({"ppo": {"clip_range": -0.1}}, "PpoConfig.clip_range"),
        ({"ppo": {"clip_range": 0.0}}, "PpoConfig.clip_range"),
        ({"ppo": {"gamma": 1.5}}, "PpoConfig.gamma"),
        ({"ppo": {"gamma": math.nan}}, "PpoConfig.gamma"),
        ({"ppo": {"gae_lambda": -1}}, "PpoConfig.gae_lambda"),
        ({"ppo": {"learning_rate": 0}}, "PpoConfig.learning_rate"),
        ({"ppo": {"learning_rate": math.nan}}, "PpoConfig.learning_rate"),
        ({"ppo": {"learning_rate": math.inf}}, "PpoConfig.learning_rate"),
        ({"ppo": {"log_std_min": 2.0, "log_std_max": 1.0}}, "PpoConfig.log_std_min"),
        ({"ppo": {"log_std_min": math.nan}}, "PpoConfig.log_std_min"),
        ({"ppo": {"hidden": [0]}}, "PpoConfig.hidden"),
        ({"ppo": {"hidden": [64, -1]}}, "PpoConfig.hidden"),
        ({"ppo": {"adam_eps": -1}}, "PpoConfig.adam_eps"),
        ({"ppo": {"adam_eps": 0.0}}, "PpoConfig.adam_eps"),
        ({"pilot_episodes": 0}, "TrainingConfig.pilot_episodes"),
        ({"pilot_episodes": -3}, "TrainingConfig.pilot_episodes"),
        ({"reward_target": -1}, "TrainingConfig.reward_target"),
        ({"reward_target": 0.0}, "TrainingConfig.reward_target"),
        ({"reward_target": math.inf}, "TrainingConfig.reward_target"),
        ({"reward_target": math.nan}, "TrainingConfig.reward_target"),
    ):
        with pytest.raises(PipelineError, match=key):
            config_from_dict({"training": training})
        bad.write_text(json.dumps({"training": training}))
        for args in (["print-config"], ["train", "--out", str(tmp_path / "p")]):
            capsys.readouterr()
            assert cli_main([*args, "--config", str(bad)]) == 2
            assert key in capsys.readouterr().err
    assert not (tmp_path / "p").exists()
    # a NaN or infinite float in the task, controller or PPO settings is an
    # input error, never a verdict: a NaN evade bound or tolerance scored
    # every sample -1 (exit 1), and a NaN max_grad_norm turned clipping off
    for data, key in (
        ({"task": {"evade_rate_bound": math.nan}}, "TaskConfig.evade_rate_bound"),
        ({"task": {"evade_angle_tol": math.nan}}, "TaskConfig.evade_angle_tol"),
        ({"task": {"evade_rate_tol": math.nan}}, "TaskConfig.evade_rate_tol"),
        ({"task": {"start": [math.nan, 0.0]}}, "TaskConfig.start"),
        ({"task": {"goal": [0.4, math.inf]}}, "TaskConfig.goal"),
        ({"task": {"v_min": -math.inf}}, "TaskConfig.v_min"),
        ({"task": {"v_max": math.nan}}, "TaskConfig.v_max"),
        ({"task": {"omega_max": math.inf}}, "TaskConfig.omega_max"),
        ({"task": {"r_diff": math.nan}}, "TaskConfig.r_diff"),
        ({"task": {"dt": math.inf}}, "TaskConfig.dt"),
        ({"controller": {"cruise_speed": math.nan}}, "ControllerConfig.cruise_speed"),
        ({"controller": {"exit_margin": math.inf}}, "ControllerConfig.exit_margin"),
        ({"training": {"ppo": {"max_grad_norm": math.nan}}}, "PpoConfig.max_grad_norm"),
        ({"training": {"ppo": {"vf_coef": math.inf}}}, "PpoConfig.vf_coef"),
        ({"training": {"ppo": {"ent_coef": math.nan}}}, "PpoConfig.ent_coef"),
        ({"training": {"ppo": {"log_std_init": -math.inf}}}, "PpoConfig.log_std_init"),
    ):
        with pytest.raises(PipelineError, match=key):
            config_from_dict(data)
        bad.write_text(json.dumps({**data, "verification": {"n_samples": 5}}))
        for args in (["print-config"], ["verify-safe", "--out", str(tmp_path / "n")]):
            capsys.readouterr()
            assert cli_main([*args, "--config", str(bad)]) == 2
            assert key in capsys.readouterr().err
    assert not (tmp_path / "n").exists()
    # a max_grad_norm of 0 or below (clipping off) or of +inf stays valid
    for norm in (0.0, -1.0, math.inf):
        assert config_from_dict({"training": {"ppo": {"max_grad_norm": norm}}})
    # train before expand
    cfg_path = write_config(tmp_path, tiny_config())
    assert cli_main(["train", "--config", cfg_path, "--out", str(tmp_path / "t")]) == 2
    capsys.readouterr()
    run_expand(tiny_config(), tmp_path / "t")
    args = ["train", "--config", cfg_path, "--out", str(tmp_path / "t"), "--steps", "0"]
    assert cli_main(args) == 2
    assert "PpoConfig.steps" in capsys.readouterr().err
    # a malformed expansion.json is an input error naming the file and key
    out = tmp_path / "e"
    out.mkdir()
    box = IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3]).to_dict()
    every = ("verify-safe", "train", "histogram")
    for payload, commands, key in (
        ({}, every, "'box'"),
        ([1], every, "JSON object"),
        ({"box": {"lower": [0.0], "upper": [0.0]}}, every, "2-D"),
        ({"box": {"lower": ["a", 0.0], "upper": [0.0, 0.0]}}, every, "'box'"),
        ({"box": box}, ("train",), "'verified_report'"),
    ):
        (out / "expansion.json").write_text(json.dumps(payload))
        for command in commands:
            capsys.readouterr()
            assert cli_main([command, "--config", cfg_path, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "expansion.json" in err and key in err
    # a policy sidecar whose mask is not a 2-D box of numbers is an input
    # error naming the sidecar and the key, and it writes nothing
    policy = tmp_path / "masked.bin"
    params = init_policy(7, 2, PpoConfig(hidden=(4,)), np.random.default_rng(0))
    for mask in ({}, {"lower": [0.0], "upper": [0.0]}, {"lower": ["a", 0.0], "upper": [0.0, 0.0]}):
        save_policy(params, policy, meta={"mask": mask})
        for command in ("verify-agent", "histogram"):
            capsys.readouterr()
            args = [command, "--config", cfg_path, "--policy", str(policy), "--out", str(tmp_path / "m")]
            assert cli_main(args) == 2
            err = capsys.readouterr().err
            assert "masked.json" in err and "'mask'" in err
            assert not (tmp_path / "m").exists()


@pytest.fixture(scope="module")
def trained_out(tmp_path_factory):
    """The output directory of expand then train on the tiny config."""
    out = tmp_path_factory.mktemp("trained")
    run_expand(tiny_config(), out)
    run_train(tiny_config(), out)
    return out


@pytest.mark.parametrize(
    "section, values, key, stage",
    [
        ("histogram", {"benchmark": {"agent_mean": math.nan}}, "HistogramBenchmark.agent_mean", "histogram"),
        ("histogram", {"benchmark": {"safe_std": math.inf}}, "HistogramBenchmark.safe_std", "histogram"),
        ("histogram", {"benchmark": {"agent_std": -math.inf}}, "HistogramBenchmark.agent_std", "histogram"),
        ("histogram", {"n_samples": 0}, "HistogramConfig.n_samples", "histogram"),
        ("expansion", {"delta_f": [math.nan, 1.0]}, "ExpandConfig.delta_f", "expand"),
        ("expansion", {"delta_f": [10.0, math.inf]}, "ExpandConfig.delta_f", "expand"),
        ("expansion", {"delta_f": [10.0, -1.0]}, "ExpandConfig.delta_f", "expand"),
        ("expansion", {"max_iters": 0}, "ExpandConfig.max_iters", "expand"),
        ("verification", {"n_samples": 0}, "VerifyConfig.n_samples", "verify-safe"),
        ("verification", {"n_samples": -5}, "VerifyConfig.n_samples", "verify-safe"),
        ("verification", {"epsilon": -0.01}, "VerifyConfig.epsilon", "verify-safe"),
        ("verification", {"epsilon": 1.5}, "VerifyConfig.epsilon", "verify-safe"),
        ("verification", {"epsilon": math.nan}, "VerifyConfig.epsilon", "verify-safe"),
    ],
)
def test_config_sections_are_checked_on_load(tmp_path, capsys, section, values, key, stage):
    # each failed only after stage work had run, or not at all: a NaN
    # benchmark statistic was written as bare NaN into histogram_summary.json
    # and manifest_histogram.json (exit 0), and a NaN delta_f entry failed
    # after e_init was verified, as "bounds must be finite"
    data = {section: values}
    with pytest.raises(PipelineError, match=re.escape(key)):
        config_from_dict(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    for args in (["print-config"], [stage, "--out", str(out)]):
        capsys.readouterr()
        assert cli_main([*args, "--config", str(bad)]) == 2
        assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, stage, key",
    [
        ("verification", "verify-safe", "VerifyConfig.seed"),
        ("expansion", "expand", "ExpandConfig.seed"),
        ("training", "train", "TrainingConfig.seed"),
        ("histogram", "histogram", "HistogramConfig.seed"),
        *((None, stage, "--seed") for stage in ("verify-safe", "expand", "train", "histogram")),
    ],
)
def test_negative_seeds_exit_2_naming_the_field(tmp_path, capsys, section, stage, key):
    # numpy's seeding rejected them once the stage ran, as a bare "expected
    # non-negative integer" that named no field
    out = tmp_path / "out"
    if section is None:
        with pytest.raises(SystemExit) as exc:
            cli_main([stage, "--seed", "-1", "--out", str(out)])
        code = exc.value.code
        assert _build_parser().parse_args([stage, "--seed", "0"]).seed == 0
    else:
        with pytest.raises(PipelineError, match=re.escape(key)):
            config_from_dict({section: {"seed": -1}})
        assert getattr(config_from_dict({section: {"seed": 0}}), section).seed == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {"seed": -1}}))
        code = cli_main([stage, "--config", str(bad), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_section_bounds_are_valid():
    # the edges of each new check load, and the default is unchanged
    data = {
        "verification": {"n_samples": 1, "epsilon": 0.0},
        "expansion": {"delta_f": [0.0, 0.0], "max_iters": 1},
        "histogram": {"n_samples": 1, "benchmark": {"agent_mean": -1e300}},
    }
    assert config_from_dict(data).verification.n_samples == 1
    assert config_from_dict({"verification": {"epsilon": 1.0}}).verification.epsilon == 1.0
    assert config_from_dict(config_to_dict(default_config())) == default_config()


@pytest.mark.parametrize(
    "name, command, torn",
    [
        ("expansion.json", "verify-safe", "whole"),
        ("expansion.json", "verify-safe", "middle"),
        ("expansion.json", "train", "whole"),
        ("expansion.json", "train", "middle"),
        ("expansion.json", "histogram", "whole"),
        ("expansion.json", "histogram", "middle"),
        ("policy.bin", "verify-agent", "whole"),
        ("policy.bin", "histogram", "whole"),
        ("policy.json", "verify-agent", "whole"),
        ("policy.json", "verify-agent", "middle"),
        ("policy.json", "histogram", "whole"),
        ("policy.json", "histogram", "middle"),
    ],
)
def test_cli_zero_filled_artifact_is_an_input_error(
    tmp_path, capsys, trained_out, name, command, torn
):
    # an artifact replaced just before a power loss may read back with some
    # or all of its pages zeroed.  A JSON artifact with a NUL byte anywhere
    # is not JSON; the policy binary is checked only through its header, and
    # its payload is fsynced before the replace (test_ppo)
    out = tmp_path / "o"
    shutil.copytree(trained_out, out)
    path = out / name
    data = bytearray(path.read_bytes())
    start, stop = (0, len(data)) if torn == "whole" else (len(data) // 3, 2 * len(data) // 3)
    data[start:stop] = bytes(stop - start)
    path.write_bytes(data)
    args = [command, "--config", write_config(tmp_path, tiny_config()), "--out", str(out)]
    if name.startswith("policy"):
        args += ["--policy", str(out / "policy.bin")]
    capsys.readouterr()
    assert cli_main(args) == 2
    assert str(path) in capsys.readouterr().err


def test_cli_engine_mismatch_is_an_error_not_a_verdict(tmp_path, capsys, monkeypatch):
    # a lockstep run that fails where every sample alone passes is an
    # internal error: exit 2, never the exit 1 of an unsafe verdict
    real = SafeController.batch

    def batch(self, robot, obstacle, evading, headings):
        if robot.shape[0] > 1:
            raise ValueError("batch fault")
        return real(self, robot, obstacle, evading, headings)

    monkeypatch.setattr(SafeController, "batch", batch)
    args = ["verify-safe", "--config", write_config(tmp_path, tiny_config())]
    capsys.readouterr()
    assert cli_main(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "each sample run alone succeeded" in err and "batch fault" in err


def test_cli_unexpected_exception_is_an_error_not_a_verdict(tmp_path, capsys, monkeypatch):
    # a fault outside the mapped errors prints its traceback and exits 2,
    # never the exit 1 of an unsafe verdict
    def broken(*args, **kwargs):
        raise RuntimeError("stage fault")

    monkeypatch.setattr("saferl.cli.run_verify_safe", broken)
    args = ["verify-safe", "--config", write_config(tmp_path, tiny_config())]
    capsys.readouterr()
    assert cli_main(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: stage fault" in err


def test_verify_agent_steps_the_policy_in_batches(tmp_path, monkeypatch, trained_out):
    # the verify-agent source maps all rows' safe controls through the agent
    # in one call per step, over the safe controller's array method, and
    # never calls the safe controller one row at a time
    policy = trained_out / "policy.bin"
    want = run_verify_agent(tiny_config(), policy, tmp_path / "a")[0]
    rows = []
    call = MaskedPolicy.__call__

    def spy(self, robot, obstacle, safe):
        rows.append(len(robot))
        return call(self, robot, obstacle, safe)

    def one_row(self, robot, obstacle):
        raise AssertionError("the safe controller was called on one row")

    monkeypatch.setattr(MaskedPolicy, "__call__", spy)
    monkeypatch.setattr(SafeController, "__call__", one_row)
    got = run_verify_agent(tiny_config(), policy, tmp_path / "b")[0]
    assert got == want
    assert rows and rows[0] == want.n_samples


def test_cli_verify_agent_control_outside_the_box_is_an_error(
    tmp_path, capsys, monkeypatch, trained_out
):
    # an agent whose map reaches past the sidecar's box fails verify-agent
    # with exit 2, naming the lowest failing sample, its seed and the step
    mask_action = ppo.mask_action

    def wider(raw, safe, box):
        return mask_action(raw, safe, box.scale(1000.0))

    monkeypatch.setattr(ppo, "mask_action", wider)
    cfg = tiny_config()
    policy = trained_out / "policy.bin"
    args = ["verify-agent", "--config", write_config(tmp_path, cfg), "--policy", str(policy)]
    capsys.readouterr()
    assert cli_main(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    found = re.search(r"rollout sample (\d+) \(seed (\d+)\) failed: step (\d+): applied", err)
    assert found, err
    sample, seed = int(found[1]), int(found[2])
    assert seed == derive_seed(cfg.verification.seed, sample)
    assert "leave the action box" in err and "Traceback" not in err


def test_cli_train_prints_the_steps_of_whole_windows(tmp_path, capsys):
    # a budget that is not a multiple of n_steps (256) rounds down to whole
    # windows; the manifest keeps the requested budget
    cfg_path = write_config(tmp_path, tiny_config())
    out = tmp_path / "t"
    run_expand(tiny_config(), out)
    capsys.readouterr()
    assert cli_main(["train", "--config", cfg_path, "--out", str(out), "--steps", "300"]) == 0
    assert "trained 256 steps in 1 updates;" in capsys.readouterr().out
    manifest = json.loads((out / "manifest_train.json").read_text())
    assert manifest["overrides"]["steps"] == 300


@pytest.mark.parametrize("command", ["verify-agent", "histogram"])
@pytest.mark.parametrize(
    "fault", ["missing", "corrupt sidecar", "input width 5", "output width 3", "NaN weights"]
)
def test_cli_unloadable_policy_writes_nothing(tmp_path, capsys, trained_out, command, fault):
    # the policy is loaded and checked against the task before --out is
    # made: a missing policy file, a sidecar that is not JSON, a policy
    # whose widths do not fit the 7 observations and the 2-D mask, or one
    # with a NaN weight exits 2, names the file and leaves no output
    # directory
    cfg = tiny_config()
    policy = tmp_path / "p" / "policy.bin"
    policy.parent.mkdir()
    if fault == "corrupt sidecar":
        shutil.copy(trained_out / "policy.bin", policy)
        policy.with_suffix(".json").write_text("{not json")
    elif fault != "missing":
        widths = {"input width 5": (5, 2), "output width 3": (7, 3)}.get(fault, (7, 2))
        params = init_policy(*widths, cfg.training.ppo, np.random.default_rng(0))
        if fault == "NaN weights":
            params.policy.weights[1][2, 3] = math.nan
        mask = json.loads((trained_out / "policy.json").read_text())["mask"]
        save_policy(params, policy, meta={"mask": mask})
    out = tmp_path / "o"
    args = [command, "--config", write_config(tmp_path, cfg), "--policy", str(policy)]
    capsys.readouterr()
    assert cli_main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(policy.with_suffix("")) in err and "Traceback" not in err, err
    assert not out.exists()


def test_cli_corrupt_policy_file(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    bad_policy = tmp_path / "p.bin"
    bad_policy.write_bytes(b"garbage")
    code = cli_main(
        [
            "verify-agent",
            "--config",
            cfg_path,
            "--policy",
            str(bad_policy),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "policy" in err.lower()


def test_cli_histogram_without_policy(tmp_path, capsys):
    cfg_path = write_config(tmp_path, tiny_config())
    code = cli_main(
        ["histogram", "--config", cfg_path, "--out", str(tmp_path / "h"), "--n", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "safe" in out
    summary = json.loads((tmp_path / "h" / "histogram_summary.json").read_text())
    assert summary["safe"]["n"] == 2
    assert "agent" not in summary


HISTOGRAM_RUNS = ("safe", "perturbed", "agent")


@pytest.mark.parametrize(
    "failing",
    [("safe", "perturbed"), ("perturbed",), ("safe", "agent"), ("perturbed", "agent"), ("agent",)],
    ids=["both", "perturbed", "safe-and-agent", "perturbed-and-agent", "agent"],
)
def test_histogram_names_the_safe_runs_failure_first(
    tmp_path, monkeypatch, trained_out, failing
):
    # the safe, perturbed and agent runs step together, yet fail as one
    # after the other: with sample 3 of the safe run and sample 1 of a later
    # run failing, the safe one is named; with only a later run failing,
    # that run is named.  No file of an earlier run in the directory
    # changes, not even the CSVs of the runs before the failing one
    cfg = tiny_config()
    out = tmp_path / "h"
    shutil.copytree(trained_out, out)
    policy = out / "policy.bin" if "agent" in failing else None
    run_histogram(cfg, policy, out, n=3)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    seeds = {name: derive_seed(404, k) for k, name in enumerate(HISTOGRAM_RUNS)}
    samples = {"safe": 3, "perturbed": 1, "agent": 1}
    source = EvasionSource(cfg.task, _safe_factory(cfg))
    bad = [float(_sample_inputs(source, None, seeds[k], samples[k])[0][3]) for k in failing]
    real = SafeController.batch

    def batch(self, robot, obstacle, evading, headings):
        v, omega, evading = real(self, robot, obstacle, evading, headings)
        v[np.isin(obstacle[:, 3], bad)] = math.nan
        return v, omega, evading

    monkeypatch.setattr(SafeController, "batch", batch)
    named = failing[0]
    with pytest.raises(PipelineError, match=f"^histogram {named} run: rollout sample") as err:
        run_histogram(cfg, policy, out)
    i = samples[named]
    cause = err.value.__cause__
    assert isinstance(cause, RolloutFailure)
    assert (cause.sample_index, cause.seed) == (i, derive_seed(seeds[named], i))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_histogram_agent_control_outside_the_box_names_its_step(
    tmp_path, monkeypatch, trained_out
):
    # an agent whose map reaches past the sidecar's box fails the agent run
    # as its own probv call fails, naming the run, the sample, its seed and
    # the step; the safe and perturbed runs, on which the agent does not
    # act, pass, yet write no CSV
    mask_action = ppo.mask_action

    def wider(raw, safe, box):
        return mask_action(raw, safe, box.scale(1000.0))

    monkeypatch.setattr(ppo, "mask_action", wider)
    cfg = tiny_config()
    out = tmp_path / "h"
    shutil.copytree(trained_out, out)
    policy = out / "policy.bin"
    agent = _agent_source(cfg, policy)
    with pytest.raises(RolloutFailure) as alone:
        probv(agent, None, agent.robustness, 4, cfg.verification.epsilon, derive_seed(404, 2))
    with pytest.raises(PipelineError) as err:
        run_histogram(cfg, policy, out)
    assert str(err.value) == f"histogram agent run: {alone.value}"
    assert str(err.value.__cause__) == str(alone.value)
    assert re.search(r"failed: step \d+: applied offsets", str(alone.value))
    assert isinstance(err.value.__cause__.__cause__, ContainmentViolation)
    assert not list(out.glob("histogram_*"))


@pytest.mark.parametrize("with_box", [True, False], ids=["perturbed", "unperturbed"])
def test_histogram_runs_equal_their_own_probv_calls(tmp_path, trained_out, with_box):
    # one lockstep run on the agent's source, bit for bit as one probv call
    # per run: the safe and perturbed runs on the safe source, the agent
    # run on the agent source
    cfg = tiny_config()
    out = tmp_path / "h"
    out.mkdir()
    for name in ("policy.bin", "policy.json", *(("expansion.json",) if with_box else ())):
        shutil.copy(trained_out / name, out / name)
    policy = out / "policy.bin"
    summary = run_histogram(cfg, policy, out)[0]
    assert [k for k in summary if k != "benchmark"] == (
        ["safe", "perturbed", "agent"] if with_box else ["safe", "agent"]
    )
    safe, agent = _safe_source(cfg), _agent_source(cfg, policy)
    box = _persisted_expansion(out)
    runs = {"safe": (safe, None), "perturbed": (safe, box), "agent": (agent, None)}
    eps = cfg.verification.epsilon
    for k, name in enumerate(HISTOGRAM_RUNS):
        source, perturbation = runs[name]
        if name == "perturbed" and not with_box:
            assert not (out / "histogram_perturbed.csv").exists()
            continue
        report = probv(source, perturbation, source.robustness, 4, eps, derive_seed(404, k))
        want = tmp_path / f"{name}.csv"
        write_samples_csv(report, want, EvasionSource.initial_labels)
        assert (out / f"histogram_{name}.csv").read_bytes() == want.read_bytes()
        assert summary[name]["rho_star"] == report.rho_star
    # the agent acts: the safe source's report of the agent run's seed differs
    unmasked = probv(safe, None, safe.robustness, 4, eps, derive_seed(404, 2))
    assert unmasked.robustnesses != tuple(csv_robustnesses(out / "histogram_agent.csv"))


def csv_robustnesses(path) -> list[float]:
    """The robustness column of a samples CSV."""
    rows = path.read_text().splitlines()[1:]
    return [float(row.split(",")[2]) for row in rows]


def calibrate_reward_scale_ref(task, controller_factory, box, episodes, seed, target):
    """The pilot episodes played one after another through step_raw."""
    pilot_task = replace(task, r_diff=1.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 404]))
    worst = 0.0
    for corner in (np.array([1.0, 1.0]), np.array([-1.0, -1.0])):
        for _ in range(max(1, episodes // 2)):
            env = EvasionEnv(pilot_task, controller_factory, mask=box)
            env.reset_random(rng)
            total = 0.0
            done = False
            while not done:
                _, r, done, _ = env.step_raw(corner)
                total += r
            worst = max(worst, abs(total))
    if worst <= 0.0:
        return task.r_diff
    return target / worst


@pytest.mark.parametrize("episodes", [3, 15, 16, 17, 20])
def test_calibrate_reward_scale_equals_the_sequential_loop(episodes):
    # 3 pilots run one episode per corner and 15 run 7 per corner, one by
    # one; 16 and 17 run 8 per corner and 20 run 10, in lockstep
    cfg = default_config()
    box = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    for seed in (0, 7):
        got = calibrate_reward_scale(cfg.task, _safe_factory(cfg), box, episodes, seed, 5.0)
        want = calibrate_reward_scale_ref(cfg.task, _safe_factory(cfg), box, episodes, seed, 5.0)
        assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), seed


def test_calibration_steps_pilots_together_from_the_crossover(monkeypatch):
    calls = []
    step_raw = EvasionEnv.step_raw

    def spy(self, raw_action):
        calls.append(1)
        return step_raw(self, raw_action)

    monkeypatch.setattr(EvasionEnv, "step_raw", spy)
    cfg = default_config()
    box = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    for episodes in (2 * LOCKSTEP_MIN_ROWS, 2 * LOCKSTEP_MIN_ROWS + 1, cfg.training.pilot_episodes):
        calibrate_reward_scale(cfg.task, _safe_factory(cfg), box, episodes, 3, 5.0)
        assert not calls, episodes
    calibrate_reward_scale(cfg.task, _safe_factory(cfg), box, 2 * LOCKSTEP_MIN_ROWS - 1, 3, 5.0)
    assert calls
