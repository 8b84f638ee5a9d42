import functools
import itertools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from reference import rollout_ref
from saferl.boxes import IntervalBox
from saferl.controller import SafeController
from saferl.evasion import EpisodeTrace, EvasionSource, TaskConfig
from saferl.ppo import PpoConfig, agent_controller_factory, init_policy, load_policy, save_policy
from saferl.stl import Signal
from saferl.verify import (
    EngineMismatch,
    RolloutFailure,
    VerificationReport,
    _run_lockstep,
    _run_sample,
    confidence,
    derive_seed,
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


def test_probv_results_independent_of_sample_order():
    # Each sample is seeded by its index alone, so running the samples in any
    # order and putting them back in index order reproduces the report.
    source = LineSource()
    box = IntervalBox([-0.25], [0.25])
    report = probv(source, box, first_value, n=16, epsilon=0.1, base_seed=5)
    order = np.random.default_rng(3).permutation(16)
    assert not np.array_equal(order, np.arange(16))
    by_index = {int(i): _run_sample(source, box, first_value, 5, int(i)) for i in order}
    seeds, params, rhos = zip(*(by_index[i] for i in range(16)))
    assert seeds == report.per_sample_seeds
    assert params == report.per_sample_params
    assert rhos == report.robustnesses


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
    assert "diverged" in str(err.value)
    # The report names the lowest failing sample and its recorded seed.
    first_failing = next(
        i for i in range(20) if np.random.default_rng([9, i, 0]).uniform() > 0.5
    )
    assert err.value.sample_index == first_failing
    assert err.value.seed == derive_seed(9, first_failing)


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


# ---------------------------------------------------------------------------
# Lockstep rollouts: every sample stepped together through rollout_batch,
# against the float engine of tests/reference.py, one sample at a time
# ---------------------------------------------------------------------------

TASK = TaskConfig()
E_INIT = IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3])


def safe_source(controller=SafeController) -> EvasionSource:
    return EvasionSource(TASK, lambda: controller(TASK))


def sequential(source: EvasionSource) -> SimpleNamespace:
    """``source`` behind a wrapper without ``rollout_batch``, whose samples
    probv runs one by one through :func:`reference.rollout_ref`: the
    reference path."""
    return SimpleNamespace(
        sample_initial=source.sample_initial, rollout=functools.partial(rollout_ref, source)
    )


class BatchOnly(EvasionSource):
    """A source whose samples can run only through ``rollout_batch``."""

    def rollout(self, initial, perturb=None):
        raise AssertionError("a sample ran one by one")


def report_text(report: VerificationReport) -> str:
    return json.dumps(report.to_json_dict())


def trace_bits(trace: EpisodeTrace):
    finals = [*vars(trace.final_robot).values(), *vars(trace.final_obstacle).values()]
    return trace.rows.tobytes(), np.array(finals).tobytes(), trace.termination


@pytest.mark.parametrize(
    "box", [None, E_INIT, E_INIT.scale((11, 2)), E_INIT.scale((41, 5))], ids=str
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lockstep_probv_equals_sequential(box, seed):
    evading_rows = []

    class Counting(SafeController):
        def batch(self, robot, obstacle, evading, headings):
            out = super().batch(robot, obstacle, evading, headings)
            evading_rows.append(int(out[2].sum()))
            return out

    source = safe_source(Counting)
    want = [_run_sample(sequential(source), box, source.robustness, seed, i) for i in range(50)]
    # _run_lockstep raises where probv would fall back to the sequential path
    got = _run_lockstep(source, box, source.robustness, seed, 50)
    assert repr(got) == repr(want)
    assert sum(evading_rows) > 0
    lockstep = probv(source, box, source.robustness, 50, 0.05, seed)
    reference = probv(sequential(source), box, source.robustness, 50, 0.05, seed)
    assert report_text(lockstep) == report_text(reference)
    if box is not None and box.upper[0] > 40 * E_INIT.upper[0]:
        assert min(lockstep.robustnesses) < 0  # failing samples exist


def test_lockstep_single_sample():
    source = safe_source()
    for box in (None, E_INIT):
        got = _run_lockstep(source, box, source.robustness, 5, 1)
        assert repr(got) == repr([_run_sample(sequential(source), box, source.robustness, 5, 0)])


def test_rollout_batch_retires_rows_that_finish_first():
    source = safe_source()
    rng = np.random.default_rng(8)
    # row 1's obstacle stays clear of the path: it reaches the goal first;
    # rows 0 and 3 evade, and row 2 runs to the horizon
    initials = np.array(
        [
            [0.08, -0.18, -2.88, 0.05],
            [0.23, 0.05, 1.89, 0.15],
            [0.24, 0.29, -1.12, 0.08],
            [0.2, 0.36, -2.36, 0.1],
        ]
    )
    chunks = [[E_INIT.sample(rng, 64) for _ in range(5)] for _ in initials]
    finished = list(source.rollout_batch(initials, [iter(c) for c in chunks]))
    assert [i for i, _ in finished] == [1, 3, 0, 2]  # in the order the rows end
    traces = [trace for _, trace in sorted(finished, key=lambda f: f[0])]
    lengths = [t.n_steps for t in traces]
    assert traces[1].termination == "goal" and traces[2].termination == "horizon"
    assert lengths[1] < min(lengths[:1] + lengths[2:])
    assert len(set(lengths)) == 4
    for initial, chunk, trace in zip(initials, chunks, traces):
        stream = functools.partial(next, itertools.chain.from_iterable(chunk))
        assert trace_bits(trace) == trace_bits(rollout_ref(source, initial, stream))


def test_rollout_is_one_row_of_rollout_batch():
    # rollout calls perturb() once per step and equals rollout_batch on its
    # one row and the float engine, bit for bit; the widest box pushes the
    # perturbed controls past both actuator limits
    source = safe_source()
    boxes = (None, E_INIT, E_INIT.scale((41, 5)), IntervalBox([-0.15, -4.0], [0.15, 4.0]))
    for seed, box in itertools.product(range(3), boxes):
        initial = source.sample_initial(np.random.default_rng(seed))
        rng, draws = np.random.default_rng(seed), []

        def perturb():
            draws.append(box.sample(rng))
            return draws[-1]

        trace = source.rollout(initial, None if box is None else perturb)
        assert len(draws) == (0 if box is None else trace.n_steps)
        replay, blocks = None, None
        if box is not None:
            replay, blocks = functools.partial(next, iter(draws)), [iter(np.array(draws)[:, None])]
        assert trace_bits(trace) == trace_bits(rollout_ref(source, initial, replay))
        ((row, batched),) = source.rollout_batch([initial], blocks)
        assert row == 0 and trace_bits(batched) == trace_bits(trace)


def test_lockstep_nan_control_names_the_lowest_failing_sample():
    source = safe_source()
    speeds = [
        float(source.sample_initial(np.random.default_rng([4, i, 0]))[3]) for i in range(12)
    ]
    bad = {speeds[7], speeds[3]}
    batch_calls = []

    class NanForSome(SafeController):
        def __call__(self, robot, obstacle):
            v, omega = super().__call__(robot, obstacle)
            return (math.nan if obstacle.v in bad else v), omega

        def batch(self, robot, obstacle, evading, headings):
            batch_calls.append(1)
            v, omega, evading = super().batch(robot, obstacle, evading, headings)
            v[np.isin(obstacle[:, 3], list(bad))] = math.nan
            return v, omega, evading

    failing = safe_source(NanForSome)
    with pytest.raises(RolloutFailure) as err:
        probv(failing, E_INIT, failing.robustness, 12, 0.05, base_seed=4)
    assert batch_calls
    assert err.value.sample_index == 3
    assert err.value.seed == derive_seed(4, 3)
    assert "non-finite" in str(err.value)


def test_opaque_controller_runs_lockstep():
    # controllers without an array method: the safe controller and a masked
    # agent with a random policy, each behind a closure; and that agent with
    # its array method
    def safe():
        ctl = SafeController(TASK)
        return lambda robot, obstacle: ctl(robot, obstacle)

    params = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(12))
    mask = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    agent = agent_controller_factory(params, mask, TASK, safe_source().controller_factory)

    def wrapped_agent():
        ctl = agent()
        return lambda robot, obstacle: ctl(robot, obstacle)

    for factory, box in itertools.product((safe, agent, wrapped_agent), (None, E_INIT)):
        reference = EvasionSource(TASK, factory)
        batch_only = BatchOnly(TASK, factory)
        for n in (1, 3, 12, 50):
            want = probv(sequential(reference), box, reference.robustness, n, 0.05, 6)
            got = probv(batch_only, box, batch_only.robustness, n, 0.05, 6)
            assert report_text(got) == report_text(want), (factory, box, n)
        if factory is safe:  # the same verdict as the controller's array method
            batched = probv(safe_source(), box, reference.robustness, 50, 0.05, 6)
            assert report_text(got) == report_text(batched)


@pytest.mark.parametrize("loaded", [False, True], ids=["init_policy", "loaded"])
def test_agent_lockstep_probv_equals_sequential(tmp_path, loaded):
    # the agent's array method against its one-by-one rollouts, with the
    # default network and both memory orders of its first layer
    params = init_policy(7, 2, PpoConfig(), np.random.default_rng(13))
    if loaded:
        save_policy(params, tmp_path / "p.bin", meta={})
        params, _ = load_policy(tmp_path / "p.bin")
    mask = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    agent = agent_controller_factory(params, mask, TASK, safe_source().controller_factory)
    assert agent().batch
    reference = EvasionSource(TASK, agent)
    batch_only = BatchOnly(TASK, agent)
    for box, n in itertools.product((None, E_INIT), (1, 3, 12, 50)):
        want = probv(sequential(reference), box, reference.robustness, n, 0.05, 7)
        got = probv(batch_only, box, batch_only.robustness, n, 0.05, 7)
        assert report_text(got) == report_text(want), (box, n)


def test_opaque_controller_error_names_the_lowest_failing_sample():
    speeds = [
        float(safe_source().sample_initial(np.random.default_rng([4, i, 0]))[3]) for i in range(12)
    ]
    bad = {speeds[9], speeds[5]}
    batches = []

    def factory():
        ctl = SafeController(TASK)

        def control(robot, obstacle):
            if obstacle.v in bad and robot.x > TASK.start[0] + 0.05:
                raise ValueError("controller fault")
            return ctl(robot, obstacle)

        return control

    class Counting(EvasionSource):
        def rollout_batch(self, initials, perturbations=None):
            batches.append(len(initials))
            return super().rollout_batch(initials, perturbations)

    source = Counting(TASK, factory)
    with pytest.raises(RolloutFailure) as err:
        probv(source, E_INIT, source.robustness, 12, 0.05, base_seed=4)
    # the lockstep run, then samples 0-5 re-run one row each
    assert batches == [12, 1, 1, 1, 1, 1, 1]
    assert err.value.sample_index == 5
    assert err.value.seed == derive_seed(4, 5)
    assert "controller fault" in str(err.value)


def test_failing_controller_factory_names_sample_zero():
    def broken():
        raise ValueError("no controller")

    source = EvasionSource(TASK, broken)
    with pytest.raises(RolloutFailure) as err:
        probv(source, None, source.robustness, 12, 0.05, base_seed=1)
    assert err.value.sample_index == 0 and "no controller" in str(err.value)


def test_opaque_controller_may_return_extra_entries():
    # EvasionEnv._clamp reads the first two entries of a control, and so does
    # the lockstep per-row path: no sample runs one by one
    rollouts = []

    def factory():
        ctl = SafeController(TASK)
        return lambda robot, obstacle: (*ctl(robot, obstacle), 0.0)

    class Counting(EvasionSource):
        def rollout(self, initial, perturb=None):
            rollouts.append(1)
            return super().rollout(initial, perturb)

    source = Counting(TASK, factory)
    for box in (None, E_INIT):
        want = [_run_sample(sequential(source), box, source.robustness, 6, i) for i in range(12)]
        report = probv(source, box, source.robustness, 12, 0.05, 6)
        assert rollouts == []
        got = list(zip(report.per_sample_seeds, report.per_sample_params, report.robustnesses))
        assert repr(got) == repr(want)


def test_lockstep_failure_that_no_sample_repeats_raises():
    # the one-by-one re-run only names a failing sample; when every sample
    # passes alone the failure depends on the row count and probv reports
    # nothing
    class BatchFault(SafeController):
        def batch(self, robot, obstacle, evading, headings):
            if robot.shape[0] > 1:
                raise ValueError("batch fault")
            return super().batch(robot, obstacle, evading, headings)

    source = safe_source(BatchFault)
    with pytest.raises(EngineMismatch) as err:
        probv(source, E_INIT, source.robustness, 12, 0.05, base_seed=4)
    assert isinstance(err.value.__cause__, ValueError)
    assert "batch fault" in str(err.value.__cause__)
