"""Scenario-based probabilistic verification of executable black-box systems.

Given a source that can roll out the closed loop from a sampled initial
condition (optionally with an additive input perturbation drawn uniformly
from an interval box at every step), :func:`probv` collects the robustness
values of N independent rollouts.  The sample minimum ``rho_star`` bounds
the (1 - epsilon) quantile of achievable robustness from below with
confidence ``1 - (1 - epsilon)**N``; verification passes when
``rho_star >= 0``.  A source with ``rollout_batch`` runs all N rollouts in
lockstep, at every N.  :func:`probv_runs` verifies several independent
``(box, seed, agent)`` runs of one source in one such lockstep run, one
report per run; :func:`probv` is its one-run call, with the agent acting.
A run's ``agent`` says whether the source's agent acts on it, so that the
agent and the safe controller beneath it verify together.

:func:`find_expansion_set` searches for the largest verifiable perturbation
box by growing an initial box axis-wise with fixed fractional increments and
re-verifying until the first failure, returning the last verified box.  It
verifies the initial box and the first candidate in one lockstep run.

Reproducibility contract: sample ``i`` of a run draws its initial condition
and its perturbation stream from generators seeded by ``(base_seed, i, 0)``
and ``(base_seed, i, 1)``, so results are independent of evaluation order
and a report can be reproduced bit-for-bit from its recorded seed.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from .atomic import atomic_open
from .boxes import IntervalBox

__all__ = [
    "RolloutSource",
    "VerificationReport",
    "ExpansionSearchResult",
    "RolloutFailure",
    "InitialSetTooLarge",
    "confidence",
    "min_samples_for",
    "derive_seed",
    "probv",
    "probv_runs",
    "find_expansion_set",
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
    perturbations)`` with one row per sample and, when perturbed, one draw
    callable per sample, and scores each ``(row, trajectory)`` pair it
    yields (see :meth:`saferl.evasion.EvasionSource.rollout_batch`).
    ``draw(m)`` returns the sample's perturbations of steps ``0 .. m - 1``,
    the stream that ``perturb`` gives ``rollout`` one step at a time; the
    rows past the rollout's last step must go unused.  When some run of
    :func:`probv_runs` leaves the source's agent out, the call also gets
    ``agent_rows``, one bool per row, true where the agent acts.  A
    failing row lets the others run on; after them the run raises an error
    whose ``row`` attribute names the lowest failed row.
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


def _sample_inputs(source: RolloutSource, expansion: IntervalBox | None, base_seed: int, i: int):
    """Sample ``i``'s initial condition, from its ``(base_seed, i, 0)``
    generator, and its perturbation draw ``partial(expansion.sample, rng)``
    on its ``(base_seed, i, 1)`` generator (None without ``expansion``):
    ``draw()`` gives one step's row and ``draw(m)`` the next ``m`` rows of
    the same stream, bit for bit."""
    init_rng = np.random.default_rng(np.random.SeedSequence([base_seed, i, 0]))
    initial = np.asarray(source.sample_initial(init_rng), dtype=float)
    if expansion is None:
        return initial, None
    perturb_rng = np.random.default_rng(np.random.SeedSequence([base_seed, i, 1]))
    return initial, functools.partial(expansion.sample, perturb_rng)


def _run_sample(
    source: RolloutSource,
    expansion: IntervalBox | None,
    robustness_fn: Callable,
    base_seed: int,
    i: int,
):
    seed = derive_seed(base_seed, i)
    initial, draw = _sample_inputs(source, expansion, base_seed, i)
    try:
        trajectory = source.rollout(initial, draw)
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
    runs: Sequence[tuple[IntervalBox | None, int, bool]],
    robustness_fn: Callable,
    n: int,
) -> list:
    """The ``n`` samples of every ``(expansion, base_seed, agent)`` run of
    ``runs`` through one ``source.rollout_batch`` call, each trace scored as
    its rollout ends.  Each perturbed row gets its sample's draw
    (:func:`_sample_inputs`); rows of an unperturbed run among perturbed
    ones, with or without the agent, get a draw of ``-0.0`` rows, which
    leaves every control bit for bit as it is.  When a run's ``agent`` is
    false, the call marks the rows of the runs whose ``agent`` is true as
    its ``agent_rows``, the only rows the source's agent acts on.

    Returns one entry per run, up to the first run that fails: the list of
    what :func:`_run_sample` returns for each index, or, for that failing
    run, the :class:`RolloutFailure` of its lowest sample whose rollout
    failed (the ``row`` of the call's error) or whose robustness raised or
    is not finite."""
    inputs = [_sample_inputs(source, box, seed, i) for box, seed, _ in runs for i in range(n)]
    initials, draws = zip(*inputs)
    boxes = [box for box, _, _ in runs if box is not None]
    perturbations = None
    if boxes:
        dim = boxes[0].dim
        perturbations = [(lambda m: np.full((m, dim), -0.0)) if d is None else d for d in draws]
    marks = [agent for _, _, agent in runs]
    agent_rows = {} if all(marks) else {"agent_rows": np.repeat(marks, n)}
    rhos, errors = [math.nan] * len(inputs), {}
    try:
        for row, trace in source.rollout_batch(np.array(initials), perturbations, **agent_rows):
            try:
                rhos[row] = float(robustness_fn(trace))
            except Exception as exc:
                errors[row] = exc
    except Exception as exc:
        if not hasattr(exc, "row"):
            raise
        errors[exc.row] = exc
    outcomes = []
    for r, (_, base_seed, _) in enumerate(runs):
        results = []
        for i in range(n):  # a failed row's robustness stays NaN
            rho, exc = rhos[r * n + i], errors.get(r * n + i)
            seed = derive_seed(base_seed, i)
            if not math.isfinite(rho):
                message = f"non-finite robustness {rho}" if exc is None else str(exc)
                failure = RolloutFailure(i, seed, message)
                failure.__cause__ = exc
                return [*outcomes, failure]
            results.append((seed, tuple(float(v) for v in initials[r * n + i]), rho))
        outcomes.append(results)
    return outcomes


def probv_runs(
    source: RolloutSource,
    runs: Sequence[tuple[IntervalBox | None, int, bool]],
    robustness_fn: Callable,
    n: int,
    epsilon: float,
) -> Iterator[VerificationReport]:
    """Verify ``source`` on ``n`` independent rollouts for each
    ``(expansion, base_seed, agent)`` run of ``runs``, and yield one report
    per run, in order.  With ``agent`` true the report equals, bit for bit,
    that of ``probv(source, expansion, robustness_fn, n, epsilon,
    base_seed)``; with ``agent`` false the run goes without the source's
    agent, and its report equals, bit for bit, that of the same source
    without an agent (for an :class:`~saferl.evasion.EvasionSource`, with
    ``agent=None``).  Only a source with ``rollout_batch`` takes such a run
    (``ValueError`` otherwise).

    A source with ``rollout_batch`` steps the samples of all runs together
    in one call, made when the first report is asked for; any other source
    runs each run one by one when its report is asked for, so a caller that
    stops early runs no later run.  The first failing run raises
    :class:`RolloutFailure` for its lowest failing sample when its report
    is due, and the runs after it yield nothing.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    conf = confidence(epsilon, n)  # validates epsilon

    if hasattr(source, "rollout_batch"):
        outcomes = _run_lockstep(source, runs, robustness_fn, n)
    elif not all(agent for _, _, agent in runs):
        raise ValueError("a run without the source's agent needs a source with rollout_batch")
    else:
        outcomes = (
            [_run_sample(source, box, robustness_fn, seed, i) for i in range(n)]
            for box, seed, _ in runs
        )
    for (_, base_seed, _), results in zip(runs, outcomes):
        if isinstance(results, RolloutFailure):
            raise results
        seeds, params, rhos = zip(*results)
        yield VerificationReport(
            robustnesses=rhos,
            rho_star=min(rhos),
            epsilon=epsilon,
            n_samples=n,
            confidence=conf,
            base_seed=base_seed,
            per_sample_params=params,
            per_sample_seeds=seeds,
        )


def probv(
    source: RolloutSource,
    expansion: IntervalBox | None,
    robustness_fn: Callable,
    n: int,
    epsilon: float,
    base_seed: int,
) -> VerificationReport:
    """Verify ``source`` on ``n`` independent rollouts: the one-run call of
    :func:`probv_runs`.

    With ``expansion`` present, every step of every rollout adds a fresh
    uniform draw from the box to the controller output; with ``expansion``
    None the system runs unperturbed (the deterministic-policy case).
    A source with ``rollout_batch`` has all its samples stepped together,
    whatever its controller; otherwise samples run one by one in index
    order.  A failing rollout, or a robustness that raises or is not
    finite, raises :class:`RolloutFailure` for the lowest failing index.
    """
    (report,) = probv_runs(source, [(expansion, base_seed, True)], robustness_fn, n, epsilon)
    return report


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

    ``e_init`` and candidate 1 are verified in one :func:`probv_runs` call,
    as one lockstep run for a source with ``rollout_batch``; every later
    candidate in its own :func:`probv` call.  Failures keep the order of
    one verification after another: :class:`InitialSetTooLarge` for
    ``e_init`` wins over a :class:`RolloutFailure` of candidate 1, and a
    source without ``rollout_batch`` runs candidate 1 only once ``e_init``
    has passed.
    """
    delta = np.atleast_1d(np.asarray(delta_f, dtype=float))
    if delta.shape != e_init.lower.shape:
        raise ValueError("delta_f dimension does not match the box")
    if np.any(delta < 0):
        raise ValueError("delta_f must be nonnegative")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")

    def candidate(i: int) -> IntervalBox:
        return e_init.scale(1.0 + i * delta)

    first = [(box, derive_seed(base_seed, i), True) for i, box in enumerate((e_init, candidate(1)))]
    reports = itertools.chain(
        probv_runs(source, first, robustness_fn, n, epsilon),
        (
            probv(source, candidate(i), robustness_fn, n, epsilon, derive_seed(base_seed, i))
            for i in itertools.count(2)
        ),
    )
    report = next(reports)
    if report.rho_star < 0:
        raise InitialSetTooLarge(report)

    current_box, current_report = e_init, report
    for i in range(1, max_iters + 1):
        report = next(reports)
        if report.rho_star < 0:
            return ExpansionSearchResult(
                box=current_box,
                converged=True,
                growth_steps=i - 1,
                verified_report=current_report,
                failed_report=report,
            )
        current_box, current_report = candidate(i), report
    return ExpansionSearchResult(
        box=current_box,
        converged=False,
        growth_steps=max_iters,
        verified_report=current_report,
        failed_report=None,
    )
