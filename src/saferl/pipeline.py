"""Three-stage pipeline wiring: verify the perturbed safe controller, search
for the largest verifiable perturbation box, train inside it, re-verify the
trained deterministic policy, and export robustness histograms.

Every stage is a pure function of (configuration, overrides): artifacts are
written under the output directory together with a manifest (resolved
configuration, its hash, seeds, library versions) sufficient to reproduce
the stage byte-for-byte.  Training refuses to run until a verified
expansion box has been persisted by the expand stage, which enforces the
stage ordering.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .atomic import atomic_open
from .boxes import IntervalBox
from .controller import ControllerConfig, SafeController
from .evasion import EvasionEnv, EvasionSource, TaskConfig
from .ppo import (
    PpoConfig,
    agent_controller_factory,
    evaluate_policy,
    load_policy,
    save_policy,
    train,
)
from .verify import (
    ExpansionSearchResult,
    VerificationReport,
    find_expansion_set,
    probv,
    write_report_json,
    write_samples_csv,
)

__all__ = [
    "VerifyConfig",
    "ExpandConfig",
    "TrainingConfig",
    "HistogramBenchmark",
    "HistogramConfig",
    "PipelineConfig",
    "PipelineError",
    "default_config",
    "load_config",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
    "calibrate_reward_scale",
    "run_verify_safe",
    "run_expand",
    "run_train",
    "run_verify_agent",
    "run_histogram",
]

class PipelineError(RuntimeError):
    """Configuration or stage-ordering problem."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    n_samples: int = 50
    epsilon: float = 0.05
    seed: int = 2024
    jobs: int = 1  # rollout threads: the same results for any value, no speedup (GIL)


def _default_e_init() -> IntervalBox:
    return IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3])


@dataclass(frozen=True)
class ExpandConfig:
    e_init: IntervalBox = field(default_factory=_default_e_init)
    delta_f: tuple[float, float] = (10.0, 1.0)
    max_iters: int = 100
    seed: int = 2024


@dataclass(frozen=True)
class TrainingConfig:
    ppo: PpoConfig = field(default_factory=PpoConfig)
    seed: int = 7
    auto_scale_reward: bool = True
    reward_target: float = 5.0
    pilot_episodes: int = 20


@dataclass(frozen=True)
class HistogramBenchmark:
    """External reference statistics recorded next to measured ones."""

    agent_mean: float = 0.78
    agent_std: float = 0.32
    safe_mean: float = 0.76
    safe_std: float = 0.35


@dataclass(frozen=True)
class HistogramConfig:
    n_samples: int = 200
    seed: int = 31
    benchmark: HistogramBenchmark = field(default_factory=HistogramBenchmark)


@dataclass(frozen=True)
class PipelineConfig:
    task: TaskConfig = field(default_factory=TaskConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    verification: VerifyConfig = field(default_factory=VerifyConfig)
    expansion: ExpandConfig = field(default_factory=ExpandConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    histogram: HistogramConfig = field(default_factory=HistogramConfig)
    output_dir: str = "out"


def default_config() -> PipelineConfig:
    return PipelineConfig()


def config_to_dict(obj) -> dict:
    """JSON form of a config dataclass, recursing into nested configs.

    This and :func:`config_from_dict` are the only definition of the config
    file format, so the manifests and ``config_sha256`` see every field.
    """
    if isinstance(obj, IntervalBox):
        return obj.to_dict()
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _is_a(value, hint) -> bool:
    """JSON type check of a scalar: an int passes as a float, a bool never
    passes as a number."""
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _number_list(value, item, length, where: str) -> list:
    if not (
        isinstance(value, (list, tuple))
        and (length is None or len(value) == length)
        and all(_is_a(v, item) for v in value)
    ):
        size = "a list of" if length is None else f"a list of {length}"
        raise PipelineError(f"{where} must be {size} {item.__name__} values, not {value!r}")
    return list(value)


def config_from_dict(data, cls=PipelineConfig):
    """Inverse of :func:`config_to_dict`; missing keys take their defaults.

    Raises :class:`PipelineError` when ``data`` or a nested section is not a
    JSON object, holds a key the dataclass does not define, or holds a value
    of the wrong JSON type.
    """
    if not isinstance(data, dict):
        raise PipelineError(
            f"{cls.__name__} must be a JSON object, not {type(data).__name__}"
        )
    if cls is IntervalBox:
        if set(data) != {"lower", "upper"}:
            raise PipelineError(f"IntervalBox keys must be lower and upper, not {sorted(data)}")
        bounds = {k: _number_list(v, float, None, f"IntervalBox.{k}") for k, v in data.items()}
        return IntervalBox.from_dict(bounds)
    hints = get_type_hints(cls)
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise PipelineError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        hint = hints[key]
        where = f"{cls.__name__}.{key}"
        if is_dataclass(hint):
            value = config_from_dict(value, hint)
        elif get_origin(hint) is tuple:
            args = get_args(hint)
            length = None if args[-1] is Ellipsis else len(args)
            value = tuple(_number_list(value, args[0], length, where))
        elif not _is_a(value, hint):
            raise PipelineError(f"{where} must be {hint.__name__}, not {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PipelineError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PipelineError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def config_hash(cfg: PipelineConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Shared wiring
# ---------------------------------------------------------------------------


def _safe_factory(cfg: PipelineConfig):
    return lambda: SafeController(cfg.task, cfg.controller)


def _safe_source(cfg: PipelineConfig) -> EvasionSource:
    return EvasionSource(cfg.task, _safe_factory(cfg))


def _write_json(path: Path, obj: dict) -> None:
    with atomic_open(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(
    out_dir: Path, stage: str, cfg: PipelineConfig, overrides: dict, artifacts: list[str]
) -> Path:
    manifest = {
        "stage": stage,
        "overrides": {k: v for k, v in sorted(overrides.items())},
        "config": config_to_dict(cfg),
        "config_sha256": config_hash(cfg),
        "versions": {
            "saferl": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "artifacts": sorted(artifacts),
    }
    path = out_dir / f"manifest_{stage}.json"
    _write_json(path, manifest)
    return path


def _prepare_out(cfg: PipelineConfig, out_dir) -> Path:
    path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def run_verify_safe(
    cfg: PipelineConfig,
    out_dir=None,
    seed: int | None = None,
    jobs: int | None = None,
    expansion: IntervalBox | None = None,
) -> tuple[VerificationReport, dict]:
    """Verify the safe controller under uniform input perturbation.

    The perturbation box defaults to the persisted expansion set when one
    exists, otherwise to the configured initial box.  Passing an explicit
    ``expansion`` (possibly degenerate) overrides both.
    """
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.verification.seed if seed is None else seed
    used_jobs = cfg.verification.jobs if jobs is None else jobs
    if expansion is None:
        persisted = out / "expansion.json"
        if persisted.exists():
            expansion = IntervalBox.from_dict(json.loads(persisted.read_text())["box"])
        else:
            expansion = cfg.expansion.e_init
    source = _safe_source(cfg)
    report = probv(
        source,
        expansion,
        source.robustness,
        cfg.verification.n_samples,
        cfg.verification.epsilon,
        used_seed,
        jobs=used_jobs,
    )
    report_path = out / "verify_safe_report.json"
    samples_path = out / "verify_safe_samples.csv"
    write_report_json(report, report_path)
    write_samples_csv(report, samples_path, EvasionSource.initial_labels)
    extra = out / "verify_safe_expansion.json"
    _write_json(extra, {"expansion": expansion.to_dict(), "rho_star": report.rho_star})
    manifest = _write_manifest(
        out,
        "verify_safe",
        cfg,
        {"seed": used_seed, "jobs": used_jobs, "expansion": expansion.to_dict()},
        [report_path.name, samples_path.name, extra.name],
    )
    paths = {
        "report": report_path,
        "samples": samples_path,
        "expansion": extra,
        "manifest": manifest,
    }
    return report, paths


def run_expand(
    cfg: PipelineConfig,
    out_dir=None,
    seed: int | None = None,
    jobs: int | None = None,
) -> tuple[ExpansionSearchResult, dict]:
    """Search for the largest verifiable perturbation box and persist it."""
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.expansion.seed if seed is None else seed
    used_jobs = cfg.verification.jobs if jobs is None else jobs
    source = _safe_source(cfg)
    result = find_expansion_set(
        source,
        cfg.expansion.e_init,
        np.asarray(cfg.expansion.delta_f),
        source.robustness,
        cfg.verification.n_samples,
        cfg.verification.epsilon,
        used_seed,
        max_iters=cfg.expansion.max_iters,
        jobs=used_jobs,
    )
    box_path = out / "expansion.json"
    payload = {
        "box": result.box.to_dict(),
        "converged": result.converged,
        "growth_steps": result.growth_steps,
        "n_samples": cfg.verification.n_samples,
        "epsilon": cfg.verification.epsilon,
        "verified_report": result.verified_report.to_json_dict(),
        "failed_report": (
            result.failed_report.to_json_dict() if result.failed_report else None
        ),
    }
    _write_json(box_path, payload)
    manifest = _write_manifest(
        out,
        "expand",
        cfg,
        {"seed": used_seed, "jobs": used_jobs},
        [box_path.name],
    )
    return result, {"expansion": box_path, "manifest": manifest}


def _load_verified_expansion(out: Path) -> IntervalBox:
    path = out / "expansion.json"
    if not path.exists():
        raise PipelineError(
            "training requires a persisted verified expansion set; run the expand stage first"
        )
    data = json.loads(path.read_text())
    report = VerificationReport.from_json_dict(data["verified_report"])
    if report.rho_star < 0:
        raise PipelineError(
            f"persisted expansion set is not verified (rho_star = {report.rho_star:.6g})"
        )
    return IntervalBox.from_dict(data["box"])


def calibrate_reward_scale(
    task: TaskConfig,
    controller_factory,
    box: IntervalBox,
    episodes: int,
    seed: int,
    target: float,
) -> float:
    """Pick the reward scale so extreme in-box actions give episode returns
    of roughly ``target`` magnitude: run pilot episodes pinned to the box
    corners at unit scale and divide."""
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


_LOG_COLUMNS = (
    "step",
    "mean_reward",
    "std_reward",
    "action_diff",
    "loss",
    "policy_loss",
    "value_loss",
    "entropy",
    "approx_kl",
    "clip_fraction",
)


def run_train(
    cfg: PipelineConfig,
    out_dir=None,
    seed: int | None = None,
    steps: int | None = None,
) -> tuple[dict, dict]:
    """Train the masked agent inside the persisted verified expansion set."""
    out = _prepare_out(cfg, out_dir)
    box = _load_verified_expansion(out)
    used_seed = cfg.training.seed if seed is None else seed
    ppo_cfg = cfg.training.ppo if steps is None else replace(cfg.training.ppo, steps=steps)

    safe_factory = _safe_factory(cfg)
    task = cfg.task
    if cfg.training.auto_scale_reward:
        r_diff = calibrate_reward_scale(
            task,
            safe_factory,
            box,
            cfg.training.pilot_episodes,
            used_seed,
            cfg.training.reward_target,
        )
        task = replace(task, r_diff=r_diff)

    env_factory = lambda: EvasionEnv(task, safe_factory, mask=box)  # noqa: E731
    params, log_rows = train(env_factory, ppo_cfg, used_seed)

    eval_seed = int(np.random.SeedSequence([used_seed, 777]).generate_state(1)[0])
    eval_mean, eval_std, eval_returns = evaluate_policy(
        env_factory, params, ppo_cfg.eval_episodes, eval_seed
    )

    policy_path = out / "policy.bin"
    sidecar = save_policy(
        params,
        policy_path,
        meta={
            "mask": box.to_dict(),
            "ppo": config_to_dict(ppo_cfg),
            "train_seed": used_seed,
            "r_diff": task.r_diff,
            "eval": {
                "seed": eval_seed,
                "episodes": ppo_cfg.eval_episodes,
                "mean_return": eval_mean,
                "std_return": eval_std,
            },
        },
    )
    log_path = out / "training_log.csv"
    with atomic_open(log_path, newline="") as fh:
        fh.write(",".join(_LOG_COLUMNS) + "\n")
        for row in log_rows:
            fh.write(
                ",".join(
                    repr(float(row[c])) if c != "step" else str(row[c])
                    for c in _LOG_COLUMNS
                )
                + "\n"
            )
    manifest = _write_manifest(
        out,
        "train",
        cfg,
        {"seed": used_seed, "steps": ppo_cfg.steps, "r_diff": task.r_diff},
        [policy_path.name, sidecar.name, log_path.name],
    )
    summary = {
        "eval_mean_return": eval_mean,
        "eval_std_return": eval_std,
        "eval_returns": eval_returns,
        "r_diff": task.r_diff,
        "updates": len(log_rows),
    }
    paths = {
        "policy": policy_path,
        "sidecar": sidecar,
        "log": log_path,
        "manifest": manifest,
    }
    return summary, paths


def _agent_source(cfg: PipelineConfig, policy_path) -> EvasionSource:
    params, meta = load_policy(policy_path)
    if "mask" not in meta:
        raise PipelineError(
            f"policy sidecar for {policy_path} lacks the action mask box"
        )
    box = IntervalBox.from_dict(meta["mask"])
    factory = agent_controller_factory(params, box, cfg.task, _safe_factory(cfg))
    return EvasionSource(cfg.task, factory)


def run_verify_agent(
    cfg: PipelineConfig,
    policy_path,
    out_dir=None,
    seed: int | None = None,
    jobs: int | None = None,
) -> tuple[VerificationReport, dict]:
    """Verify the trained deterministic policy (no input perturbation)."""
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.verification.seed if seed is None else seed
    used_jobs = cfg.verification.jobs if jobs is None else jobs
    source = _agent_source(cfg, policy_path)
    report = probv(
        source,
        None,
        source.robustness,
        cfg.verification.n_samples,
        cfg.verification.epsilon,
        used_seed,
        jobs=used_jobs,
    )
    report_path = out / "verify_agent_report.json"
    samples_path = out / "verify_agent_samples.csv"
    write_report_json(report, report_path)
    write_samples_csv(report, samples_path, EvasionSource.initial_labels)
    manifest = _write_manifest(
        out,
        "verify_agent",
        cfg,
        {"seed": used_seed, "jobs": used_jobs, "policy": str(policy_path)},
        [report_path.name, samples_path.name],
    )
    return report, {"report": report_path, "samples": samples_path, "manifest": manifest}


def run_histogram(
    cfg: PipelineConfig,
    policy_path=None,
    out_dir=None,
    n: int | None = None,
    seed: int | None = None,
    jobs: int | None = None,
) -> tuple[dict, dict]:
    """Export robustness samples for the deterministic safe controller, the
    perturbed safe controller (when an expansion set is persisted) and the
    trained agent (when a policy file is given), with summary statistics."""
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.histogram.seed if seed is None else seed
    used_jobs = cfg.verification.jobs if jobs is None else jobs
    used_n = cfg.histogram.n_samples if n is None else n
    epsilon = cfg.verification.epsilon

    def stage_seed(idx: int) -> int:
        return int(np.random.SeedSequence([used_seed, idx]).generate_state(1)[0])

    def summarize(report: VerificationReport) -> dict:
        values = np.asarray(report.robustnesses)
        return {
            "n": report.n_samples,
            "mean": float(values.mean()),
            "std": float(values.std()),
            "rho_star": report.rho_star,
        }

    safe_source = _safe_source(cfg)
    runs: dict[str, VerificationReport] = {}
    runs["safe"] = probv(
        safe_source, None, safe_source.robustness, used_n, epsilon, stage_seed(0), used_jobs
    )
    expansion_path = out / "expansion.json"
    if expansion_path.exists():
        box = IntervalBox.from_dict(json.loads(expansion_path.read_text())["box"])
        runs["perturbed"] = probv(
            safe_source, box, safe_source.robustness, used_n, epsilon, stage_seed(1), used_jobs
        )
    if policy_path is not None:
        agent_source = _agent_source(cfg, policy_path)
        runs["agent"] = probv(
            agent_source, None, agent_source.robustness, used_n, epsilon, stage_seed(2), used_jobs
        )

    artifacts = []
    for name, report in runs.items():
        path = out / f"histogram_{name}.csv"
        write_samples_csv(report, path, EvasionSource.initial_labels)
        artifacts.append(path.name)
    summary = {name: summarize(report) for name, report in runs.items()}
    summary["benchmark"] = config_to_dict(cfg.histogram.benchmark)
    summary_path = out / "histogram_summary.json"
    _write_json(summary_path, summary)
    artifacts.append(summary_path.name)
    manifest = _write_manifest(
        out,
        "histogram",
        cfg,
        {
            "seed": used_seed,
            "jobs": used_jobs,
            "n": used_n,
            "policy": str(policy_path) if policy_path is not None else None,
        },
        artifacts,
    )
    paths = {name: out / f"histogram_{name}.csv" for name in runs}
    paths["summary"] = summary_path
    paths["manifest"] = manifest
    return summary, paths
