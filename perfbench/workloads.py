"""Workload definitions: configurations, set-up, timed stage calls and the
checks run on every stage's outputs.

Workloads (each stresses different saferl layers):

* ``verify_safe``: ``expand``, ``verify-safe`` on the persisted box, then
  ``histogram`` without a policy (safe plus perturbed).  Exercises evasion,
  controller, stl, verify and boxes; mlp and ppo do no work.
* ``train``: ``train`` at a reduced step budget from a verified box persisted
  during set-up.  Exercises ppo, mlp and ``EvasionEnv.step_raw``; the STL
  monitor, ``IntervalBox.sample`` and ``probv`` do no work.
* ``verify_agent``: ``verify-agent`` plus ``histogram --policy`` on a policy
  trained during set-up, with no perturbation.  Every step runs a batch-1
  policy forward inside the opaque controller.

Stage calls take the workload seed as their ``seed`` override and never pass
``jobs``.  Expansion is capped at one growth step so that every seed runs the
same number of ``probv`` calls (two); otherwise the work per run, and so the
timings, would depend on how many growth steps a seed happens to verify.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from saferl import pipeline
from saferl.boxes import IntervalBox
from saferl.ppo import load_policy

WORKLOADS = ("verify_safe", "train", "verify_agent")


@dataclass(frozen=True)
class Scale:
    """Sizes of the stage calls made with one configuration."""

    n_verify: int  # samples per verification call (N)
    n_histogram: int  # samples per histogram run
    train_steps: int  # PPO step budget
    n_steps: int  # PPO update window
    epochs: int
    minibatch: int
    eval_episodes: int
    pilot_episodes: int


# (timed stages, set-up stages).  Set-up only needs a verified box and a
# policy that loads, so it runs at small sizes.
FULL = (
    Scale(50, 50, 8192, 2048, 10, 64, eval_episodes=50, pilot_episodes=20),
    Scale(10, 10, 512, 256, 2, 64, eval_episodes=2, pilot_episodes=2),
)
SMOKE = (
    Scale(3, 3, 128, 64, 1, 32, eval_episodes=1, pilot_episodes=2),
    Scale(2, 2, 64, 64, 1, 32, eval_episodes=1, pilot_episodes=2),
)


class CheckFailed(AssertionError):
    """A stage returned, but its outputs break an invariant."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def make_config(scale: Scale):
    cfg = pipeline.default_config()
    ppo = replace(
        cfg.training.ppo,
        steps=scale.train_steps,
        n_steps=scale.n_steps,
        epochs=scale.epochs,
        minibatch_size=scale.minibatch,
        eval_episodes=scale.eval_episodes,
    )
    return replace(
        cfg,
        verification=replace(cfg.verification, n_samples=scale.n_verify),
        expansion=replace(cfg.expansion, max_iters=1),
        histogram=replace(cfg.histogram, n_samples=scale.n_histogram),
        training=replace(cfg.training, ppo=ppo, pilot_episodes=scale.pilot_episodes),
    )


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """Inputs of one workload run."""

    cfg: object
    out: Path  # where the timed stages write
    policy: Path | None = None
    box: IntervalBox | None = None


def _persisted_box(directory: Path) -> IntervalBox:
    data = json.loads((directory / "expansion.json").read_text())
    return IntervalBox.from_dict(data["box"])


def check_policy(policy: Path, box: IntervalBox) -> None:
    """The policy loads and its sidecar mask is the persisted verified box."""
    _, meta = load_policy(policy)
    _require("mask" in meta, f"{policy} sidecar has no mask")
    _require(IntervalBox.from_dict(meta["mask"]) == box, f"{policy} mask differs from the verified box")


def prepare(workload: str, base: Path, seed: int, sizes: tuple[Scale, Scale]) -> Prepared:
    """Build the configuration and the workload's inputs under ``base``.

    ``verify_safe`` needs only the configuration; a small verification call
    warms the rollout and monitor path so the timed loop does not pay for
    first-call initialisation.  ``train`` needs a persisted verified box and
    ``verify_agent`` a box plus a policy trained inside it.
    """
    cfg, small = make_config(sizes[0]), make_config(sizes[1])
    inputs, out = base / "inputs", base / "out"
    inputs.mkdir(parents=True)
    out.mkdir(parents=True)
    if workload == "verify_safe":
        pipeline.run_verify_safe(small, inputs, seed=seed)
        return Prepared(cfg, out)
    if workload == "train":
        pipeline.run_expand(small, out, seed=seed)
        return Prepared(cfg, out, box=_persisted_box(out))
    if workload == "verify_agent":
        pipeline.run_expand(small, inputs, seed=seed)
        _, paths = pipeline.run_train(small, inputs, seed=seed)
        box = _persisted_box(inputs)
        check_policy(paths["policy"], box)
        return Prepared(cfg, out, policy=paths["policy"], box=box)
    raise ValueError(f"unknown workload {workload!r}")


def fresh_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_report(data: dict, n: int, epsilon: float) -> None:
    """Invariants of every verification report, re-checked from its JSON."""
    rhos = data["robustnesses"]
    _require(data["n_samples"] == n == len(rhos), f"report has {len(rhos)} samples, expected {n}")
    _require(all(math.isfinite(r) for r in rhos), "non-finite robustness in report")
    _require(data["rho_star"] == min(rhos), "rho_star is not the sample minimum")
    _require(data["epsilon"] == epsilon, "report epsilon differs from the configuration")
    _require(data["confidence"] == 1.0 - (1.0 - epsilon) ** n, "confidence is not 1 - (1 - eps)^N")


def _csv_robustness(path: Path) -> list[float]:
    lines = path.read_text().splitlines()
    _require(lines[0].split(",")[:3] == ["sample_index", "seed", "robustness"], f"bad header in {path}")
    return [float(line.split(",")[2]) for line in lines[1:]]


def _check_samples_csv(path: Path, rhos: list[float]) -> None:
    _require(_csv_robustness(path) == list(rhos), f"{path.name} disagrees with its report")


@dataclass
class StageResult:
    stage: str
    start: float = 0.0  # perf_counter around the call
    end: float = 0.0
    wall_s: float = 0.0  # raw wall-clock
    cal_s: float = 0.0  # wall-clock calibrated to the reference host speed
    ok: bool = False
    error: str = ""
    samples: int = 0  # probv samples run by the stage
    train_steps: int = 0  # PPO steps run by the stage
    artifacts: dict = field(default_factory=dict)  # "stage/name" -> sha256
    artifact_bytes: int = 0


def _check_expand(prep: Prepared, result, paths) -> int:
    cfg = prep.cfg
    n, eps = cfg.verification.n_samples, cfg.verification.epsilon
    payload = json.loads(Path(paths["expansion"]).read_text())
    check_report(payload["verified_report"], n, eps)
    _require(payload["verified_report"]["rho_star"] >= 0, "persisted box is not verified")
    _require(IntervalBox.from_dict(payload["box"]) == result.box, "persisted box differs from the result")
    calls = 1 + result.growth_steps
    if payload["failed_report"] is not None:
        check_report(payload["failed_report"], n, eps)
        _require(payload["failed_report"]["rho_star"] < 0, "failed report passes")
        calls += 1
    return calls * n


def _check_verification(prep: Prepared, report, paths) -> int:
    cfg = prep.cfg
    n = cfg.verification.n_samples
    data = json.loads(Path(paths["report"]).read_text())
    check_report(data, n, cfg.verification.epsilon)
    _require(data["rho_star"] == report.rho_star, "returned and written rho_star differ")
    _check_samples_csv(Path(paths["samples"]), data["robustnesses"])
    return n


def _check_verify_safe(prep: Prepared, report, paths) -> int:
    used = json.loads(Path(paths["expansion"]).read_text())
    _require(
        IntervalBox.from_dict(used["expansion"]) == _persisted_box(prep.out),
        "verify-safe did not use the persisted box",
    )
    return _check_verification(prep, report, paths)


def _check_histogram(prep: Prepared, summary, paths, runs: tuple[str, ...]) -> int:
    n = prep.cfg.histogram.n_samples
    _require(tuple(k for k in summary if k != "benchmark") == runs, f"histogram runs {list(summary)}")
    for name in runs:
        rhos = _csv_robustness(Path(paths[name]))
        _require(len(rhos) == n == summary[name]["n"], f"histogram {name} has {len(rhos)} samples")
        _require(all(math.isfinite(r) for r in rhos), f"non-finite robustness in histogram {name}")
        _require(summary[name]["rho_star"] == min(rhos), f"histogram {name} rho_star is not the minimum")
        _require(summary[name]["mean"] == float(np.mean(rhos)), f"histogram {name} mean disagrees")
    return n * len(runs)


def _check_train(prep: Prepared, summary, paths) -> int:
    ppo = prep.cfg.training.ppo
    check_policy(Path(paths["policy"]), prep.box)
    updates = max(1, ppo.steps // ppo.n_steps)
    _require(summary["updates"] == updates, f"{summary['updates']} updates, expected {updates}")
    returns = summary["eval_returns"]
    _require(len(returns) == ppo.eval_episodes, "evaluation episode count differs")
    _require(all(math.isfinite(r) for r in returns), "non-finite evaluation return")
    rows = Path(paths["log"]).read_text().splitlines()[1:]
    _require(len(rows) == updates, "training log row count differs from the update count")
    return updates * ppo.n_steps


# ---------------------------------------------------------------------------
# Timed stage calls
# ---------------------------------------------------------------------------


def stage_plan(workload: str, prep: Prepared, seed: int):
    """Ordered (stage, call, check) triples of one iteration.

    ``call`` runs one public stage function, looked up on the module at call
    time so a tracer's rebinding takes effect.  ``check(output)`` validates
    what the call returned and wrote and returns the number of units of work
    (probv samples, or PPO steps for ``train``).
    """
    cfg, out = prep.cfg, prep.out
    if workload == "verify_safe":
        return [
            ("expand", lambda: pipeline.run_expand(cfg, out, seed=seed), lambda o: _check_expand(prep, *o)),
            (
                "verify_safe",
                lambda: pipeline.run_verify_safe(cfg, out, seed=seed),
                lambda o: _check_verify_safe(prep, *o),
            ),
            (
                "histogram",
                lambda: pipeline.run_histogram(cfg, None, out, seed=seed),
                lambda o: _check_histogram(prep, *o, runs=("safe", "perturbed")),
            ),
        ]
    if workload == "train":
        return [("train", lambda: pipeline.run_train(cfg, out, seed=seed), lambda o: _check_train(prep, *o))]
    if workload == "verify_agent":
        policy = prep.policy
        return [
            (
                "verify_agent",
                lambda: pipeline.run_verify_agent(cfg, policy, out, seed=seed),
                lambda o: _check_verification(prep, *o),
            ),
            (
                "histogram",
                lambda: pipeline.run_histogram(cfg, policy, out, seed=seed),
                lambda o: _check_histogram(prep, *o, runs=("safe", "agent")),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_stage(stage: str, call, tracer=None) -> tuple[StageResult, object]:
    """Time one stage call; a raise is recorded, never propagated."""
    result = StageResult(stage)
    if tracer is not None:
        tracer.install()
    output = None
    result.start = time.perf_counter()
    try:
        output = call()
    except Exception as exc:  # any stage failure counts as a failed operation
        result.error = f"{type(exc).__name__}: {exc}"
    finally:
        result.end = time.perf_counter()
        result.wall_s = result.end - result.start
        if tracer is not None:
            tracer.uninstall()
    return result, output


def check_stage(result: StageResult, check, output) -> None:
    """Run the output checks and digest the artifacts the stage reported."""
    try:
        work = check(output)
        _, paths = output
        for path in sorted({Path(p) for p in paths.values()}):
            key = f"{result.stage}/{path.name}"
            result.artifacts[key] = sha256_file(path)
            result.artifact_bytes += path.stat().st_size
    except Exception as exc:  # a failed or crashing check is a failed operation
        result.error = f"{type(exc).__name__}: {exc}"
        return
    if result.stage == "train":
        result.train_steps = work
    else:
        result.samples = work
    result.ok = True
