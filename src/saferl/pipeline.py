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
from .atomic import atomic_open, write_json
from .boxes import IntervalBox
from .controller import ControllerConfig, SafeController, _check_turn_rate
from .evasion import (
    EvasionEnv,
    EvasionSource,
    TaskConfig,
    _OBS_DIM,
    _check_fields,
    _finite,
    _is_finite,
    sample_obstacle,
)
from .ppo import (
    MaskedPolicy,
    PpoConfig,
    evaluate_policy,
    load_policy,
    save_policy,
    train,
)
from .verify import (
    ExpansionSearchResult,
    RolloutFailure,
    VerificationReport,
    derive_seed,
    find_expansion_set,
    probv,
    probv_runs,
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
    # Rollouts run sequentially; the field is pinned to 1 and kept only
    # because every stage manifest records it.
    jobs: int = 1

    def __post_init__(self):
        _check_fields(self, [
            ("n_samples", self.n_samples >= 1, "at least 1"),
            ("seed", self.seed >= 0, "at least 0"),
            ("epsilon", 0 <= self.epsilon <= 1, "in [0, 1]"),
            ("jobs", self.jobs == 1, "1 (rollouts run sequentially; manifests record the field)"),
        ])


def _default_e_init() -> IntervalBox:
    return IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3])


@dataclass(frozen=True)
class ExpandConfig:
    e_init: IntervalBox = field(default_factory=_default_e_init)
    delta_f: tuple[float, float] = (10.0, 1.0)
    max_iters: int = 100
    seed: int = 2024

    def __post_init__(self):
        _check_fields(self, [
            ("e_init", self.e_init.dim == 2, "2-D (speed, turn rate)"),
            ("delta_f", _is_finite(self.delta_f) and all(d >= 0 for d in self.delta_f),
             "finite and nonnegative"),
            ("delta_f", len(self.delta_f) == 2, "2 entries, one per e_init axis"),
            ("max_iters", self.max_iters >= 1, "at least 1"),
            ("seed", self.seed >= 0, "at least 0"),
        ])


@dataclass(frozen=True)
class TrainingConfig:
    ppo: PpoConfig = field(default_factory=PpoConfig)
    seed: int = 7
    auto_scale_reward: bool = True
    reward_target: float = 5.0
    pilot_episodes: int = 20

    def __post_init__(self):
        _check_fields(self, [
            ("pilot_episodes", self.pilot_episodes >= 1, "at least 1"),
            ("seed", self.seed >= 0, "at least 0"),
            ("reward_target", _is_finite(self.reward_target) and self.reward_target > 0,
             "finite and positive"),
        ])


@dataclass(frozen=True)
class HistogramBenchmark:
    """External reference statistics recorded next to measured ones."""

    agent_mean: float = 0.78
    agent_std: float = 0.32
    safe_mean: float = 0.76
    safe_std: float = 0.35

    def __post_init__(self):
        _check_fields(self, _finite(self))


@dataclass(frozen=True)
class HistogramConfig:
    n_samples: int = 200
    seed: int = 31
    benchmark: HistogramBenchmark = field(default_factory=HistogramBenchmark)

    def __post_init__(self):
        _check_fields(self, [
            ("n_samples", self.n_samples >= 1, "at least 1"),
            ("seed", self.seed >= 0, "at least 0"),
        ])


@dataclass(frozen=True)
class PipelineConfig:
    task: TaskConfig = field(default_factory=TaskConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    verification: VerifyConfig = field(default_factory=VerifyConfig)
    expansion: ExpandConfig = field(default_factory=ExpandConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    histogram: HistogramConfig = field(default_factory=HistogramConfig)
    output_dir: str = "out"

    def __post_init__(self):
        _check_turn_rate(self.task, self.controller)


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
    of the wrong JSON type or one its dataclass rejects.
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
        if hint is IntervalBox:
            try:
                value = config_from_dict(value, hint)
            except (PipelineError, ValueError) as exc:  # the box's message names no field
                raise PipelineError(f"{where}: {exc}") from exc
        elif is_dataclass(hint):
            value = config_from_dict(value, hint)
        elif get_origin(hint) is tuple:
            args = get_args(hint)
            length = None if args[-1] is Ellipsis else len(args)
            value = tuple(_number_list(value, args[0], length, where))
        elif not _is_a(value, hint):
            raise PipelineError(f"{where} must be {hint.__name__}, not {value!r}")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise PipelineError(str(exc)) from exc


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


def _write_manifest(
    out: Path, stage: str, cfg: PipelineConfig, overrides: dict, paths: dict
) -> dict:
    """Write ``manifest_<stage>.json``, whose artifact list is the file names
    in ``paths``, and return ``paths`` with the manifest added."""
    manifest = {
        "stage": stage,
        "overrides": overrides,
        "config": config_to_dict(cfg),
        "config_sha256": config_hash(cfg),
        "versions": {
            "saferl": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "artifacts": sorted(p.name for p in paths.values()),
    }
    path = out / f"manifest_{stage}.json"
    write_json(path, manifest)
    return {**paths, "manifest": path}


def _prepare_out(cfg: PipelineConfig, out_dir) -> Path:
    path = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise PipelineError(f"cannot make output directory {path}: {exc}") from exc
    return path


def _verify(
    cfg: PipelineConfig,
    out: Path,
    stage: str,
    source: EvasionSource,
    box: IntervalBox | None,
    seed: int,
) -> tuple[VerificationReport, dict]:
    """Run :func:`probv` at the configured N and epsilon and write
    ``<stage>_report.json`` and ``<stage>_samples.csv``."""
    report = probv(
        source,
        box,
        source.robustness,
        cfg.verification.n_samples,
        cfg.verification.epsilon,
        seed,
    )
    paths = {"report": out / f"{stage}_report.json", "samples": out / f"{stage}_samples.csv"}
    write_json(paths["report"], report.to_json_dict())
    write_samples_csv(report, paths["samples"], EvasionSource.initial_labels)
    return report, paths


def _persisted_expansion(out: Path, with_report: bool = False):
    """Read ``expansion.json`` written by the expand stage in ``out``.

    Returns None when the file is absent, else its box, or with
    ``with_report`` the pair (box, verified report).  Raises
    :class:`PipelineError` naming the file and key when the file is not a
    JSON object, lacks a key or holds a box that is not a 2-D (speed, turn
    rate) :class:`IntervalBox` of numbers.
    """
    path = out / "expansion.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise PipelineError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise PipelineError(f"{path} must hold a JSON object, not {type(data).__name__}")

    def read(key, parse):
        if key not in data:
            raise PipelineError(f"{path} has no {key!r} key")
        try:
            return parse(data[key])
        except (PipelineError, KeyError, TypeError, ValueError) as exc:
            raise PipelineError(f"{path} key {key!r}: {exc!r}") from exc

    box = read("box", lambda d: config_from_dict(d, IntervalBox))
    if box.dim != 2:
        raise PipelineError(f"{path} key 'box' must be 2-D (speed, turn rate), not {box.dim}-D")
    if not with_report:
        return box
    return box, read("verified_report", VerificationReport.from_json_dict)


def _load_verified_expansion(out: Path) -> IntervalBox:
    persisted = _persisted_expansion(out, with_report=True)
    if persisted is None:
        raise PipelineError(
            "training requires a persisted verified expansion set; run the expand stage first"
        )
    box, report = persisted
    if report.rho_star < 0:
        raise PipelineError(
            f"persisted expansion set is not verified (rho_star = {report.rho_star:.6g})"
        )
    return box


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def run_verify_safe(
    cfg: PipelineConfig,
    out_dir=None,
    seed: int | None = None,
) -> tuple[VerificationReport, dict]:
    """Verify the safe controller under uniform input perturbation.

    The perturbation box is the persisted expansion set when one exists,
    otherwise the configured initial box.
    """
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.verification.seed if seed is None else seed
    expansion = _persisted_expansion(out) or cfg.expansion.e_init
    report, paths = _verify(cfg, out, "verify_safe", _safe_source(cfg), expansion, used_seed)
    paths["expansion"] = out / "verify_safe_expansion.json"
    write_json(paths["expansion"], {"expansion": expansion.to_dict(), "rho_star": report.rho_star})
    overrides = {"seed": used_seed, "jobs": cfg.verification.jobs, "expansion": expansion.to_dict()}
    return report, _write_manifest(out, "verify_safe", cfg, overrides, paths)


def run_expand(
    cfg: PipelineConfig,
    out_dir=None,
    seed: int | None = None,
) -> tuple[ExpansionSearchResult, dict]:
    """Search for the largest verifiable perturbation box and persist it."""
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.expansion.seed if seed is None else seed
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
    )
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
    paths = {"expansion": out / "expansion.json"}
    write_json(paths["expansion"], payload)
    overrides = {"seed": used_seed, "jobs": cfg.verification.jobs}
    return result, _write_manifest(out, "expand", cfg, overrides, paths)


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
    corners at unit scale and divide by the largest return magnitude.

    ``max(1, episodes // 2)`` episodes run at each corner, those of the +1
    corner first, on obstacles drawn in that order from one generator.
    :meth:`EvasionEnv.returns` plays each corner's episodes, as one
    :meth:`EvasionSource.rollout_batch` run from ``LOCKSTEP_MIN_ROWS`` of
    them on; each return is bit-equal to playing its episode alone through
    ``step_raw``.
    """
    pilot_task = replace(task, r_diff=1.0)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 404]))
    per_corner = max(1, episodes // 2)
    env = EvasionEnv(pilot_task, controller_factory, mask=box)
    worst = 0.0
    for corner in (1.0, -1.0):
        obstacles = [sample_obstacle(pilot_task, rng) for _ in range(per_corner)]
        raw = np.full((per_corner, 2), corner)
        for total in env.returns(obstacles, lambda obs, raw=raw: raw[: len(obs)]):
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
    """Train the masked agent inside the persisted verified expansion set.

    The step budget (``steps``, default ``training.ppo.steps``) rounds down
    to whole update windows of ``n_steps``, with at least one: the run trains
    ``max(1, steps // n_steps) * n_steps`` steps, reported as the summary's
    ``trained_steps``, while the manifest's ``overrides.steps`` records the
    requested budget, checked as ``PpoConfig.steps`` before ``out`` is made."""
    ppo_cfg = cfg.training.ppo if steps is None else replace(cfg.training.ppo, steps=steps)
    out = _prepare_out(cfg, out_dir)
    box = _load_verified_expansion(out)
    used_seed = cfg.training.seed if seed is None else seed

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

    eval_seed = derive_seed(used_seed, 777)
    eval_mean, eval_std, eval_returns = evaluate_policy(
        env_factory, params, ppo_cfg.eval_episodes, eval_seed
    )

    paths = {"policy": out / "policy.bin", "log": out / "training_log.csv"}
    paths["sidecar"] = save_policy(
        params,
        paths["policy"],
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
    with atomic_open(paths["log"], newline="") as fh:
        fh.write(",".join(_LOG_COLUMNS) + "\n")
        for row in log_rows:
            fh.write(
                ",".join(
                    repr(float(row[c])) if c != "step" else str(row[c])
                    for c in _LOG_COLUMNS
                )
                + "\n"
            )
    summary = {
        "eval_mean_return": eval_mean,
        "eval_std_return": eval_std,
        "eval_returns": eval_returns,
        "r_diff": task.r_diff,
        "updates": len(log_rows),
        "trained_steps": log_rows[-1]["step"],
    }
    overrides = {"seed": used_seed, "steps": ppo_cfg.steps, "r_diff": task.r_diff}
    return summary, _write_manifest(out, "train", cfg, overrides, paths)


def _agent_source(cfg: PipelineConfig, policy_path) -> EvasionSource:
    """The safe controller with the trained policy on top
    (:class:`~saferl.ppo.MaskedPolicy`) as a rollout source.  Raises
    :class:`PipelineError` naming the sidecar when its ``mask`` is missing
    or is not a 2-D (speed, turn rate) :class:`IntervalBox` of numbers, and
    naming the policy file when the policy's input width is not the
    observation's or its output width not the mask's dimension."""
    params, meta = load_policy(policy_path)
    sidecar = Path(policy_path).with_suffix(".json")
    if "mask" not in meta:
        raise PipelineError(f"policy sidecar {sidecar} lacks the action mask box 'mask'")
    try:
        box = config_from_dict(meta["mask"], IntervalBox)
    except (PipelineError, KeyError, TypeError, ValueError) as exc:
        raise PipelineError(f"policy sidecar {sidecar} key 'mask': {exc}") from exc
    if box.dim != 2:
        raise PipelineError(
            f"policy sidecar {sidecar} key 'mask' must be 2-D (speed, turn rate), not {box.dim}-D"
        )
    if (params.obs_dim, params.act_dim) != (_OBS_DIM, box.dim):
        raise PipelineError(
            f"policy {policy_path} maps {params.obs_dim} inputs to {params.act_dim} outputs, "
            f"not the observation's {_OBS_DIM} to the mask's {box.dim}"
        )
    return EvasionSource(cfg.task, _safe_factory(cfg), MaskedPolicy(params, box, cfg.task))


def run_verify_agent(
    cfg: PipelineConfig,
    policy_path,
    out_dir=None,
    seed: int | None = None,
) -> tuple[VerificationReport, dict]:
    """Verify the trained deterministic policy (no input perturbation).  The
    policy is loaded before ``out`` is made."""
    source = _agent_source(cfg, policy_path)
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.verification.seed if seed is None else seed
    report, paths = _verify(cfg, out, "verify_agent", source, None, used_seed)
    overrides = {"seed": used_seed, "jobs": cfg.verification.jobs, "policy": str(policy_path)}
    return report, _write_manifest(out, "verify_agent", cfg, overrides, paths)


def run_histogram(
    cfg: PipelineConfig,
    policy_path=None,
    out_dir=None,
    n: int | None = None,
    seed: int | None = None,
) -> tuple[dict, dict]:
    """Export robustness samples for the deterministic safe controller, the
    perturbed safe controller (when an expansion set is persisted) and the
    trained agent (when a policy file is given), with summary statistics.

    Run ``k`` of (safe, perturbed, agent) is seeded ``derive_seed(seed, k)``
    whether or not the runs before it take place.  All runs go through one
    :func:`probv_runs` call, one lockstep run, on the agent's source when a
    policy is given: the agent acts on the agent run's rows alone, and the
    safe and perturbed rows execute the safe controller's controls, bit for
    bit as on a source without the agent.  Agent rows among perturbed rows
    draw ``-0.0``, as safe rows do.  Failures keep run order: the first
    failing run of safe, perturbed and agent raises :class:`PipelineError`
    naming it (``histogram agent run: ...``), its :class:`RolloutFailure` as
    the cause.  No file is written until every run has reported.  ``n`` is
    checked as ``HistogramConfig.n_samples`` and the policy is loaded before
    ``out`` is made."""
    histogram = cfg.histogram if n is None else replace(cfg.histogram, n_samples=n)
    source = _safe_source(cfg) if policy_path is None else _agent_source(cfg, policy_path)
    out = _prepare_out(cfg, out_dir)
    used_seed = cfg.histogram.seed if seed is None else seed
    used_n = histogram.n_samples
    box = _persisted_expansion(out)
    runs = [(0, "safe", None, False)]
    if box is not None:
        runs.append((1, "perturbed", box, False))
    if policy_path is not None:
        runs.append((2, "agent", None, True))

    reports = []
    try:
        for report in probv_runs(
            source,
            [(perturbation, derive_seed(used_seed, k), agent) for k, _, perturbation, agent in runs],
            source.robustness,
            used_n,
            cfg.verification.epsilon,
        ):
            reports.append(report)
    except RolloutFailure as exc:
        raise PipelineError(f"histogram {runs[len(reports)][1]} run: {exc}") from exc
    summary, paths = {}, {}
    for (_, name, _, _), report in zip(runs, reports):
        paths[name] = out / f"histogram_{name}.csv"
        write_samples_csv(report, paths[name], EvasionSource.initial_labels)
        values = np.asarray(report.robustnesses)
        summary[name] = {
            "n": report.n_samples,
            "mean": float(values.mean()),
            "std": float(values.std()),
            "rho_star": report.rho_star,
        }
    summary["benchmark"] = config_to_dict(cfg.histogram.benchmark)
    paths["summary"] = out / "histogram_summary.json"
    write_json(paths["summary"], summary)
    overrides = {
        "seed": used_seed,
        "jobs": cfg.verification.jobs,
        "n": used_n,
        "policy": str(policy_path) if policy_path is not None else None,
    }
    return summary, _write_manifest(out, "histogram", cfg, overrides, paths)
