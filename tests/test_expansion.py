"""Growth-loop semantics, checked on stub sources whose pass/fail behavior
is a pure function of the candidate box size."""

import numpy as np
import pytest

from reference import contains_box
from saferl.boxes import IntervalBox
from saferl.verify import (
    InitialSetTooLarge,
    find_expansion_set,
    probv,
)


class WidthThresholdSource:
    """Robustness is positive while the box stays small, negative once the
    first axis half-width exceeds the threshold.  The perturbation stream is
    probed once per rollout to expose the candidate box."""

    def __init__(self, threshold):
        self.threshold = threshold
        self.last_width = 0.0

    def sample_initial(self, rng):
        return np.array([rng.uniform()])

    def rollout(self, initial, perturb=None):
        width = 0.0
        if perturb is not None:
            draws = np.stack([perturb() for _ in range(64)])
            width = float(np.max(np.abs(draws[:, 0])))
        return self.threshold - width


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
