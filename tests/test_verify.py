import math
from dataclasses import dataclass

import numpy as np
import pytest

from saferl.boxes import IntervalBox
from saferl.stl import Signal
from saferl.verify import (
    RolloutFailure,
    VerificationReport,
    confidence,
    min_samples_for,
    probv,
    read_report_json,
    write_report_json,
    write_samples_csv,
)


# ---------------------------------------------------------------------------
# Stub sources
# ---------------------------------------------------------------------------


@dataclass
class LineSource:
    """Rollout is a short straight signal; robustness hooks are supplied by
    the test.  The initial condition is one uniform scalar in [0, 1); each
    perturbation draw shifts the whole signal."""

    steps: int = 4

    def sample_initial(self, rng):
        return np.array([rng.uniform()])

    def rollout(self, initial, perturb=None):
        values = np.full(self.steps, float(initial[0]))
        if perturb is not None:
            for k in range(self.steps):
                values[k] += float(perturb()[0])
        return Signal(values[:, None], dt=1.0)


def first_value(signal: Signal) -> float:
    return float(signal.states[0, 0])


class SequenceSource:
    """Robustness equals a scripted value per sample index (via the uniform
    initial-condition draw, which is strictly increasing in sample order for
    a fixed base seed only by accident; so instead index by call order)."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def sample_initial(self, rng):
        rng.uniform()  # consume one draw like a real source
        i = self.calls
        self.calls += 1
        return np.array([float(self.values[i])])

    def rollout(self, initial, perturb=None):
        return float(initial[0])


# ---------------------------------------------------------------------------
# Confidence arithmetic
# ---------------------------------------------------------------------------


def test_confidence_examples():
    assert confidence(0.05, 50) == pytest.approx(0.9231, abs=1e-4)
    assert confidence(1.0, 7) == 1.0
    assert confidence(0.05, 1) == pytest.approx(0.05)


def test_confidence_domain():
    with pytest.raises(ValueError):
        confidence(-0.1, 5)
    with pytest.raises(ValueError):
        confidence(0.5, 0)


def test_confidence_matches_high_precision_reference():
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    for cents in range(1, 100):  # epsilon 0.01 .. 0.99
        eps = cents / 100.0
        one_minus_eps = 1 - Decimal(eps)  # exact binary value of the float
        acc = Decimal(1)
        for n in range(1, 201):
            acc *= one_minus_eps
            assert confidence(eps, n) == pytest.approx(float(1 - acc), abs=1e-12)


def test_min_samples_inverts_confidence():
    c50 = confidence(0.05, 50)
    assert min_samples_for(0.05, c50) == 50
    assert min_samples_for(0.5, 0.0) == 1
    # brute-force oracle: smallest n with confidence >= 0.95
    n = 1
    while confidence(0.05, n) < 0.95:
        n += 1
    assert n == 59
    assert min_samples_for(0.05, 0.95) == 59


def test_min_samples_domain():
    with pytest.raises(ValueError):
        min_samples_for(0.0, 0.5)
    with pytest.raises(ValueError):
        min_samples_for(0.5, 1.0)


# ---------------------------------------------------------------------------
# probv
# ---------------------------------------------------------------------------


def test_probv_constant_robustness():
    report = probv(LineSource(), None, lambda s: 0.7, n=9, epsilon=0.1, base_seed=1)
    assert report.rho_star == 0.7
    assert report.robustnesses == tuple([0.7] * 9)


def test_probv_minimum_of_scripted_values():
    source = SequenceSource([0.3, -0.1, 0.5])
    report = probv(source, None, lambda v: v, n=3, epsilon=0.05, base_seed=3)
    assert report.rho_star == -0.1


def test_probv_report_invariants_and_determinism():
    source = LineSource()
    fn = first_value
    a = probv(source, None, fn, n=12, epsilon=0.05, base_seed=42)
    b = probv(source, None, fn, n=12, epsilon=0.05, base_seed=42)
    assert a == b
    assert a.rho_star == min(a.robustnesses)
    assert a.confidence == confidence(0.05, 12)
    assert len(a.per_sample_params) == 12
    assert len(set(a.per_sample_seeds)) == 12
    c = probv(source, None, fn, n=12, epsilon=0.05, base_seed=43)
    assert c.robustnesses != a.robustnesses


def test_probv_parallel_matches_sequential():
    source = LineSource()
    box = IntervalBox([-0.25], [0.25])
    seq = probv(source, box, first_value, n=16, epsilon=0.1, base_seed=5, jobs=1)
    par = probv(source, box, first_value, n=16, epsilon=0.1, base_seed=5, jobs=4)
    assert seq == par


def test_probv_degenerate_box_equals_absent():
    source = LineSource()
    with_zero = probv(source, IntervalBox.zero(1), first_value, 10, 0.05, 77)
    without = probv(source, None, first_value, 10, 0.05, 77)
    assert with_zero == without


def test_probv_perturbation_changes_rollouts():
    source = LineSource()
    box = IntervalBox([-0.5], [0.5])
    perturbed = probv(source, box, first_value, 10, 0.05, 77)
    clean = probv(source, None, first_value, 10, 0.05, 77)
    assert perturbed != clean


class RecordingSource:
    """Rollout draws ``steps`` perturbations and returns them as its trajectory."""

    def __init__(self, steps):
        self.steps = steps

    def sample_initial(self, rng):
        return np.array([rng.uniform()])

    def rollout(self, initial, perturb=None):
        return np.array([perturb() for _ in range(self.steps)])


def test_perturbation_stream_equals_per_step_draws():
    box = IntervalBox([-0.3, 0.0, 2.0], [0.5, 0.0, 2.5])  # degenerate middle axis
    drawn = []

    def record(draws):
        drawn.append(draws)
        return 0.0

    probv(RecordingSource(300), box, record, n=3, epsilon=0.05, base_seed=17)
    assert len(drawn) == 3
    for i, draws in enumerate(drawn):
        rng = np.random.default_rng(np.random.SeedSequence([17, i, 1]))
        expected = np.array([box.sample(rng) for _ in range(300)])
        assert np.array_equal(draws.view(np.int64), expected.view(np.int64))


def test_probv_rollout_failure_reports_index_and_seed():
    class FailingSource(LineSource):
        def rollout(self, initial, perturb=None):
            if initial[0] > 0.5:
                raise ValueError("diverged")
            return super().rollout(initial, perturb)

    with pytest.raises(RolloutFailure) as err:
        probv(FailingSource(), None, first_value, 20, 0.05, base_seed=9)
    sequential_idx = err.value.sample_index
    assert "diverged" in str(err.value)
    # Parallel execution reports the same (lowest) failing sample.
    with pytest.raises(RolloutFailure) as err2:
        probv(FailingSource(), None, first_value, 20, 0.05, base_seed=9, jobs=4)
    assert err2.value.sample_index == sequential_idx
    assert err2.value.seed == err.value.seed


def test_probv_nonfinite_robustness_fails():
    with pytest.raises(RolloutFailure) as err:
        probv(LineSource(), None, lambda s: math.nan, 3, 0.05, 1)
    assert err.value.sample_index == 0


def test_report_validation():
    with pytest.raises(ValueError):
        VerificationReport(
            robustnesses=(0.5, 0.2),
            rho_star=0.5,  # not the minimum
            epsilon=0.05,
            n_samples=2,
            confidence=confidence(0.05, 2),
            base_seed=0,
            per_sample_params=((0.0,), (0.0,)),
            per_sample_seeds=(1, 2),
        )
    with pytest.raises(ValueError):
        VerificationReport(
            robustnesses=(0.5, 0.2),
            rho_star=0.2,
            epsilon=0.05,
            n_samples=2,
            confidence=0.5,  # wrong arithmetic
            base_seed=0,
            per_sample_params=((0.0,), (0.0,)),
            per_sample_seeds=(1, 2),
        )


def test_report_json_and_csv_roundtrip(tmp_path):
    report = probv(LineSource(), IntervalBox([-0.1], [0.1]), first_value, 6, 0.2, 11)
    json_path = tmp_path / "report.json"
    write_report_json(report, json_path)
    assert read_report_json(json_path) == report
    csv_path = tmp_path / "samples.csv"
    write_samples_csv(report, csv_path, labels=["x0"])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "sample_index,seed,robustness,x0"
    assert len(lines) == 7
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert int(first[1]) == report.per_sample_seeds[0]
    assert float(first[2]) == report.robustnesses[0]
