"""Growth-loop semantics, checked on stub sources whose pass/fail behavior
is a pure function of the candidate box size."""

import numpy as np
import pytest

from reference import contains_box
from saferl.boxes import IntervalBox
from saferl.verify import (
    InitialSetTooLarge,
    RolloutFailure,
    derive_seed,
    find_expansion_set,
    probv,
)


class WidthThresholdSource:
    """Robustness is positive while the box stays small, negative once the
    first axis half-width exceeds the threshold.  The perturbation stream is
    probed once per rollout to expose the candidate box.  A rollout whose
    draws reach past ``fail_above`` fails."""

    def __init__(self, threshold, fail_above=np.inf):
        self.threshold = threshold
        self.fail_above = fail_above

    def sample_initial(self, rng):
        return np.array([rng.uniform()])

    def _score(self, draws):
        width = 0.0 if draws is None else float(np.max(np.abs(draws[:, 0])))
        if width > self.fail_above:
            raise ValueError(f"first-axis draw beyond {self.fail_above}")
        return self.threshold - width

    def rollout(self, initial, perturb=None):
        return self._score(None if perturb is None else np.stack([perturb() for _ in range(64)]))


class WidthThresholdBatchSource(WidthThresholdSource):
    """:class:`WidthThresholdSource` with ``rollout_batch``: each row draws
    its first 64 perturbation rows, as ``rollout`` does.  As in
    ``EvasionSource.rollout_batch``, a failed row lets the others run on and
    the lowest failed row's error is raised last, with that row as its
    ``row``.  Records the row count of each call."""

    def __init__(self, threshold, fail_above=np.inf):
        super().__init__(threshold, fail_above)
        self.batches = []

    def rollout_batch(self, initials, perturbations=None):
        self.batches.append(len(initials))
        failed = {}
        for row in range(len(initials)):
            try:
                draws = None if perturbations is None else perturbations[row](64)
                score = self._score(draws)
            except ValueError as exc:
                failed.setdefault(row, exc)
                continue
            yield row, score
        if failed:
            row = min(failed)
            failed[row].row = row
            raise failed[row]


class CountingSource(WidthThresholdSource):
    def __init__(self, threshold):
        super().__init__(threshold)
        self.rollouts = 0

    def rollout(self, initial, perturb=None):
        self.rollouts += 1
        return super().rollout(initial, perturb)


def identity(value):
    return float(value)


E_INIT = IntervalBox([-1e-2, -2e-2], [1e-2, 2e-2])
DELTA = np.array([1.0, 0.5])


def test_grow_until_fail_returns_last_verified_set():
    # Passes while half-width <= ~0.03, i.e. candidates i=0 (0.01), i=1
    # (0.02), i=2 (0.03); the i=3 candidate (0.04) fails.
    source = WidthThresholdSource(threshold=0.031)
    result = find_expansion_set(
        source, E_INIT, DELTA, identity, n=8, epsilon=0.05, base_seed=1, max_iters=50
    )
    assert result.converged
    assert result.growth_steps == 2
    assert result.box == E_INIT.scale(1.0 + 2 * DELTA)
    assert result.verified_report.rho_star >= 0
    assert result.failed_report is not None and result.failed_report.rho_star < 0


def test_initial_failure_raises():
    source = WidthThresholdSource(threshold=0.005)  # below e_init half-width
    with pytest.raises(InitialSetTooLarge) as err:
        find_expansion_set(
            source, E_INIT, DELTA, identity, n=4, epsilon=0.05, base_seed=2
        )
    assert err.value.report.rho_star < 0


def test_pass_on_init_fail_on_first_growth_returns_e_init():
    source = WidthThresholdSource(threshold=0.015)  # 0.01 passes, 0.02 fails
    result = find_expansion_set(
        source, E_INIT, DELTA, identity, n=4, epsilon=0.05, base_seed=3
    )
    assert result.converged
    assert result.growth_steps == 0
    assert result.box == E_INIT


def test_always_pass_hits_iteration_cap():
    source = WidthThresholdSource(threshold=1e9)
    result = find_expansion_set(
        source, E_INIT, DELTA, identity, n=4, epsilon=0.05, base_seed=4, max_iters=5
    )
    assert not result.converged
    assert result.growth_steps == 5
    assert result.box == E_INIT.scale(1.0 + 5 * DELTA)


def test_returned_set_reverifies_with_recorded_seed():
    source = WidthThresholdSource(threshold=0.031)
    result = find_expansion_set(
        source, E_INIT, DELTA, identity, n=8, epsilon=0.05, base_seed=9, max_iters=50
    )
    rerun = probv(
        source,
        result.box,
        identity,
        result.verified_report.n_samples,
        result.verified_report.epsilon,
        result.verified_report.base_seed,
    )
    assert rerun == result.verified_report
    assert rerun.rho_star >= 0


def test_containment_invariants():
    source = WidthThresholdSource(threshold=0.031)
    max_iters = 20
    result = find_expansion_set(
        source, E_INIT, DELTA, identity, n=8, epsilon=0.05, base_seed=5, max_iters=max_iters
    )
    assert contains_box(result.box, E_INIT)
    assert contains_box(E_INIT.scale(1.0 + max_iters * DELTA), result.box)


def test_argument_validation():
    source = WidthThresholdSource(threshold=1.0)
    with pytest.raises(ValueError):
        find_expansion_set(source, E_INIT, np.array([-1.0, 0.0]), identity, 2, 0.05, 0)
    with pytest.raises(ValueError):
        find_expansion_set(source, E_INIT, np.array([1.0]), identity, 2, 0.05, 0)
    with pytest.raises(ValueError):
        find_expansion_set(
            source, E_INIT, DELTA, identity, 2, 0.05, 0, max_iters=0
        )


@pytest.mark.parametrize("threshold, max_iters", [(0.031, 50), (0.015, 50), (1e9, 5)])
def test_lockstep_search_equals_one_by_one(threshold, max_iters):
    # e_init and candidate 1 run as one call of 2n rows, later candidates
    # one call each; the result equals the one-by-one search's
    batch = WidthThresholdBatchSource(threshold)
    got = find_expansion_set(batch, E_INIT, DELTA, identity, 8, 0.05, 6, max_iters=max_iters)
    want = find_expansion_set(
        WidthThresholdSource(threshold), E_INIT, DELTA, identity, 8, 0.05, 6, max_iters=max_iters
    )
    assert got == want
    calls = got.growth_steps + (got.failed_report is not None)
    assert batch.batches == [16] + [8] * (calls - 1)


def test_candidate_failure_does_not_hide_initial_set_too_large():
    # e_init fails verification and candidate 1's rollouts fail in the same
    # lockstep run: e_init's verdict is raised, as one run after the other
    source = WidthThresholdBatchSource(threshold=0.005, fail_above=0.011)
    with pytest.raises(InitialSetTooLarge) as err:
        find_expansion_set(source, E_INIT, DELTA, identity, n=4, epsilon=0.05, base_seed=2)
    assert source.batches == [8]
    assert err.value.report == probv(
        WidthThresholdSource(0.005), E_INIT, identity, 4, 0.05, derive_seed(2, 0)
    )


def test_candidate_failure_names_its_sample_and_seed():
    # e_init passes and candidate 1 fails: the failure is candidate 1's
    # own probv failure, the lowest failing sample with candidate 1's seed
    source = WidthThresholdBatchSource(threshold=1.0, fail_above=0.011)
    with pytest.raises(RolloutFailure) as err:
        find_expansion_set(source, E_INIT, DELTA, identity, n=4, epsilon=0.05, base_seed=2)
    assert source.batches == [8]
    with pytest.raises(RolloutFailure) as alone:
        probv(
            WidthThresholdSource(1.0, fail_above=0.011),
            E_INIT.scale(1.0 + DELTA),
            identity,
            4,
            0.05,
            derive_seed(2, 1),
        )
    assert str(err.value) == str(alone.value)
    assert (err.value.sample_index, err.value.seed) == (alone.value.sample_index, alone.value.seed)


def test_one_by_one_source_runs_no_candidate_once_the_initial_set_fails():
    source = CountingSource(threshold=0.005)
    with pytest.raises(InitialSetTooLarge):
        find_expansion_set(source, E_INIT, DELTA, identity, n=4, epsilon=0.05, base_seed=2)
    assert source.rollouts == 4
