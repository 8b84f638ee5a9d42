"""Scenario-based probabilistic verification of executable black-box systems.

Given a source that can roll out the closed loop from a sampled initial
condition (optionally with an additive input perturbation drawn uniformly
from an interval box at every step), :func:`probv` collects the robustness
values of N independent rollouts.  The sample minimum ``rho_star`` bounds
the (1 - epsilon) quantile of achievable robustness from below with
confidence ``1 - (1 - epsilon)**N``; verification passes when
``rho_star >= 0``.  A source with ``rollout_batch`` runs all N rollouts in
lockstep, at every N.

:func:`find_expansion_set` searches for the largest verifiable perturbation
box by growing an initial box axis-wise with fixed fractional increments and
re-verifying until the first failure, returning the last verified box.

Reproducibility contract: sample ``i`` of a run draws its initial condition
and its perturbation stream from generators seeded by ``(base_seed, i, 0)``
and ``(base_seed, i, 1)``, so results are independent of evaluation order
and a report can be reproduced bit-for-bit from its recorded seed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .atomic import atomic_open, write_json
from .boxes import IntervalBox

__all__ = [
    "RolloutSource",
    "VerificationReport",
    "ExpansionSearchResult",
    "RolloutFailure",
    "InitialSetTooLarge",
    "EngineMismatch",
    "confidence",
    "min_samples_for",
    "derive_seed",
    "probv",
    "find_expansion_set",
    "write_report_json",
    "read_report_json",
    "write_samples_csv",
]


@runtime_checkable
class RolloutSource(Protocol):
    """Executable closed-loop system.

    ``sample_initial`` draws one initial condition uniformly from the
    source's declared initial-condition set.  ``rollout`` must be
    deterministic given the initial condition and the perturbation stream
    (a zero-argument callable producing one perturbation vector per step,
    or None for an unperturbed run).  The returned trajectory object is
    passed to the robustness function unchanged.

    A source may also step many samples together: when it has a
    ``rollout_batch`` method, :func:`probv` calls ``rollout_batch(initials,
    perturbations)`` with one row per sample and, when perturbed, one
    iterator of per-step perturbation blocks per sample, and scores each
    ``(row, trajectory)`` pair it yields (see
    :meth:`saferl.evasion.EvasionSource.rollout_batch`); ``rollout`` then
    only re-runs a sample to name a failure.
    """

    def sample_initial(self, rng: np.random.Generator): ...

    def rollout(self, initial, perturb=None): ...


class RolloutFailure(RuntimeError):
    """A rollout or its robustness evaluation failed for one sample."""

    def __init__(self, sample_index: int, seed: int, message: str):
        super().__init__(
            f"rollout sample {sample_index} (seed {seed}) failed: {message}"
        )
        self.sample_index = sample_index
        self.seed = seed


class InitialSetTooLarge(RuntimeError):
    """The initial expansion set already fails verification; provide a smaller one."""

    def __init__(self, report: "VerificationReport"):
        super().__init__(
            "initial expansion set failed verification "
            f"(rho_star = {report.rho_star:.6g}); reduce it and retry"
        )
        self.report = report


class EngineMismatch(RuntimeError):
    """The lockstep run failed although every sample run alone succeeded.

    The failure depends on how many samples step together, an internal
    error: no report is given.
    """


def confidence(epsilon: float, n: int) -> float:
    """Confidence ``1 - (1 - epsilon)**n`` that the sample minimum of n
    robustness draws underperforms the (1 - epsilon) quantile."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return 1.0 - (1.0 - epsilon) ** n


def min_samples_for(epsilon: float, target_confidence: float) -> int:
    """Smallest n with ``confidence(epsilon, n) >= target_confidence``."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 <= target_confidence < 1.0:
        raise ValueError(
            f"target confidence must be in [0, 1), got {target_confidence}"
        )
    if target_confidence <= 0.0:
        return 1
    n = max(1, math.ceil(math.log1p(-target_confidence) / math.log1p(-epsilon)))
    while confidence(epsilon, n) < target_confidence:
        n += 1
    while n > 1 and confidence(epsilon, n - 1) >= target_confidence:
        n -= 1
    return n


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one probabilistic verification run."""

    robustnesses: tuple[float, ...]
    rho_star: float
    epsilon: float
    n_samples: int
    confidence: float
    base_seed: int
    per_sample_params: tuple[tuple[float, ...], ...]
    per_sample_seeds: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "robustnesses", tuple(float(r) for r in self.robustnesses))
        object.__setattr__(
            self,
            "per_sample_params",
            tuple(tuple(float(v) for v in p) for p in self.per_sample_params),
        )
        object.__setattr__(self, "per_sample_seeds", tuple(int(s) for s in self.per_sample_seeds))
        if len(self.robustnesses) != self.n_samples:
            raise ValueError("robustness count does not match n_samples")
        if len(self.per_sample_params) != self.n_samples:
            raise ValueError("per-sample parameter count does not match n_samples")
        if len(self.per_sample_seeds) != self.n_samples:
            raise ValueError("per-sample seed count does not match n_samples")
        if self.rho_star != min(self.robustnesses):
            raise ValueError("rho_star must equal the minimum sampled robustness")
        if self.confidence != confidence(self.epsilon, self.n_samples):
            raise ValueError("confidence does not match 1 - (1 - epsilon)**n")

    @property
    def passed(self) -> bool:
        return self.rho_star >= 0.0

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "epsilon": self.epsilon,
            "confidence": self.confidence,
            "rho_star": self.rho_star,
            "base_seed": self.base_seed,
            "robustnesses": list(self.robustnesses),
            "per_sample_params": [list(p) for p in self.per_sample_params],
            "per_sample_seeds": list(self.per_sample_seeds),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerificationReport":
        return cls(
            robustnesses=tuple(data["robustnesses"]),
            rho_star=data["rho_star"],
            epsilon=data["epsilon"],
            n_samples=data["n_samples"],
            confidence=data["confidence"],
            base_seed=data["base_seed"],
            per_sample_params=tuple(tuple(p) for p in data["per_sample_params"]),
            per_sample_seeds=tuple(data["per_sample_seeds"]),
        )


def write_report_json(report: VerificationReport, path) -> None:
    write_json(path, report.to_json_dict())


def read_report_json(path) -> VerificationReport:
    with open(path) as fh:
        return VerificationReport.from_json_dict(json.load(fh))


def write_samples_csv(
    report: VerificationReport, path, labels: Sequence[str] | None = None
) -> None:
    """Per-sample table: index, derived seed, robustness, initial condition."""
    width = len(report.per_sample_params[0]) if report.per_sample_params else 0
    if labels is None:
        labels = [f"ic_{i}" for i in range(width)]
    if len(labels) != width:
        raise ValueError("label count does not match initial-condition width")
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_index", "seed", "robustness", *labels])
        for i, (seed, rho, params) in enumerate(
            zip(report.per_sample_seeds, report.robustnesses, report.per_sample_params)
        ):
            writer.writerow([i, seed, repr(rho), *[repr(v) for v in params]])


# ---------------------------------------------------------------------------
# Verification runs
# ---------------------------------------------------------------------------


def derive_seed(base_seed: int, index: int) -> int:
    """The 32-bit seed of child ``index`` of ``base_seed``: the recorded seed
    of sample ``index`` in :func:`probv`, and the base seed of the
    ``index``-th verification of a multi-run stage."""
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


_PERTURB_CHUNK = 64


def _perturbation_chunks(box: IntervalBox, rng: np.random.Generator):
    """Endless blocks of per-step draws from ``box``; their rows equal one
    ``box.sample(rng)`` per step bit for bit, and rows drawn past the
    episode's end are never used by anything else."""
    while True:
        yield box.sample(rng, _PERTURB_CHUNK)


def _sample_inputs(source: RolloutSource, expansion: IntervalBox | None, base_seed: int, i: int):
    """Sample ``i``'s initial condition, from its ``(base_seed, i, 0)``
    generator, and its perturbation blocks, from its ``(base_seed, i, 1)``
    generator (None without ``expansion``)."""
    init_rng = np.random.default_rng(np.random.SeedSequence([base_seed, i, 0]))
    initial = np.asarray(source.sample_initial(init_rng), dtype=float)
    if expansion is None:
        return initial, None
    perturb_rng = np.random.default_rng(np.random.SeedSequence([base_seed, i, 1]))
    return initial, _perturbation_chunks(expansion, perturb_rng)


def _run_sample(
    source: RolloutSource,
    expansion: IntervalBox | None,
    robustness_fn: Callable,
    base_seed: int,
    i: int,
):
    seed = derive_seed(base_seed, i)
    initial, chunks = _sample_inputs(source, expansion, base_seed, i)
    perturb = None if chunks is None else functools.partial(next, itertools.chain.from_iterable(chunks))
    try:
        trajectory = source.rollout(initial, perturb)
        rho = float(robustness_fn(trajectory))
    except RolloutFailure:
        raise
    except Exception as exc:
        raise RolloutFailure(i, seed, str(exc)) from exc
    if not math.isfinite(rho):
        raise RolloutFailure(i, seed, f"non-finite robustness {rho}")
    return seed, tuple(float(v) for v in initial), rho


def _run_lockstep(
    source: RolloutSource,
    expansion: IntervalBox | None,
    robustness_fn: Callable,
    base_seed: int,
    n: int,
):
    """All ``n`` samples through one ``source.rollout_batch`` call, each
    trace scored as its rollout ends; returns what :func:`_run_sample`
    returns for each index, and raises on any failure without naming the
    sample."""
    initials, chunks = zip(*(_sample_inputs(source, expansion, base_seed, i) for i in range(n)))
    rhos = [math.nan] * n
    for i, trace in source.rollout_batch(
        np.array(initials), None if expansion is None else list(chunks)
    ):
        rhos[i] = float(robustness_fn(trace))
    if not all(math.isfinite(rho) for rho in rhos):
        raise ValueError("non-finite robustness")
    return [
        (derive_seed(base_seed, i), tuple(float(v) for v in initial), rho)
        for i, (initial, rho) in enumerate(zip(initials, rhos))
    ]


def probv(
    source: RolloutSource,
    expansion: IntervalBox | None,
    robustness_fn: Callable,
    n: int,
    epsilon: float,
    base_seed: int,
) -> VerificationReport:
    """Verify ``source`` on ``n`` independent rollouts.

    With ``expansion`` present, every step of every rollout adds a fresh
    uniform draw from the box to the controller output; with ``expansion``
    None the system runs unperturbed (the deterministic-policy case).
    A source with ``rollout_batch`` has all its samples stepped together,
    whatever its controller; otherwise samples run one by one in index
    order.  A failing rollout raises :class:`RolloutFailure` for the lowest
    failing index: after any error in the lockstep run the samples are re-run
    one at a time through ``rollout`` (for
    :class:`~saferl.evasion.EvasionSource`, the same lockstep engine on one
    row) only to find it.  If that re-run completes, the failure depends on
    the number of rows stepped together, and :class:`EngineMismatch` is
    raised from the lockstep error; no report comes from the re-run.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    conf = confidence(epsilon, n)  # validates epsilon

    if hasattr(source, "rollout_batch"):
        try:
            results = _run_lockstep(source, expansion, robustness_fn, base_seed, n)
        except Exception as exc:
            for i in range(n):  # raises RolloutFailure for the lowest failing sample
                _run_sample(source, expansion, robustness_fn, base_seed, i)
            raise EngineMismatch(
                f"the lockstep run of {n} samples failed ({exc!r}) but each sample "
                "run alone succeeded"
            ) from exc
    else:
        results = [_run_sample(source, expansion, robustness_fn, base_seed, i) for i in range(n)]
    seeds, params, rhos = zip(*results)
    return VerificationReport(
        robustnesses=rhos,
        rho_star=min(rhos),
        epsilon=epsilon,
        n_samples=n,
        confidence=conf,
        base_seed=base_seed,
        per_sample_params=params,
        per_sample_seeds=seeds,
    )


# ---------------------------------------------------------------------------
# Expansion-set search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionSearchResult:
    """Largest verified perturbation box found by the growth loop.

    ``converged`` is False when the iteration cap stopped the search before
    any verification failed; the box is still verified in that case.
    ``verified_report`` is the passing report of the returned box and
    ``failed_report`` the first failing one (None when the cap was hit).
    """

    box: IntervalBox
    converged: bool
    growth_steps: int
    verified_report: VerificationReport
    failed_report: VerificationReport | None


def find_expansion_set(
    source: RolloutSource,
    e_init: IntervalBox,
    delta_f,
    robustness_fn: Callable,
    n: int,
    epsilon: float,
    base_seed: int,
    max_iters: int = 100,
) -> ExpansionSearchResult:
    """Grow ``e_init`` axis-wise until verification first fails.

    Iteration ``i`` verifies the candidate ``(1 + i * delta_f) * e_init``
    (both bounds scaled); on the first failure the previous candidate
    ``(1 + (i - 1) * delta_f) * e_init`` is returned.  A failure of
    ``e_init`` itself raises :class:`InitialSetTooLarge`.  Each verification
    uses a fresh seed derived from ``(base_seed, iteration)`` so accept and
    reject decisions are uncorrelated across iterations.
    """
    delta = np.atleast_1d(np.asarray(delta_f, dtype=float))
    if delta.shape != e_init.lower.shape:
        raise ValueError("delta_f dimension does not match the box")
    if np.any(delta < 0):
        raise ValueError("delta_f must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    report = probv(source, e_init, robustness_fn, n, epsilon, derive_seed(base_seed, 0))
    if report.rho_star < 0:
        raise InitialSetTooLarge(report)

    current_box, current_report = e_init, report
    i = 1
    while True:
        if i > max_iters:
            return ExpansionSearchResult(
                box=current_box,
                converged=False,
                growth_steps=i - 1,
                verified_report=current_report,
                failed_report=None,
            )
        candidate = e_init.scale(1.0 + i * delta)
        report = probv(
            source, candidate, robustness_fn, n, epsilon, derive_seed(base_seed, i)
        )
        if report.rho_star < 0:
            return ExpansionSearchResult(
                box=current_box,
                converged=True,
                growth_steps=i - 1,
                verified_report=current_report,
                failed_report=report,
            )
        current_box, current_report = candidate, report
        i += 1
