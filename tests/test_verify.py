import functools
import itertools
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import rollout_ref
from saferl.atomic import write_json
from saferl.boxes import IntervalBox
from saferl.controller import SafeController
from saferl.evasion import (
    COL_CMD_V,
    COL_CMD_W,
    COL_SAFE_V,
    COL_VO,
    EpisodeTrace,
    EvasionSource,
    ObstacleState,
    RobotState,
    TaskConfig,
    unicycle_step,
)
from saferl.ppo import MaskedPolicy, PpoConfig, init_policy, load_policy, save_policy
from saferl.stl import Signal
import saferl.verify
from saferl.verify import (
    RolloutFailure,
    VerificationReport,
    _run_lockstep,
    _run_sample,
    confidence,
    derive_seed,
    min_samples_for,
    probv,
    probv_runs,
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
    write_json(json_path, report.to_json_dict())
    assert VerificationReport.from_json_dict(json.loads(json_path.read_text())) == report
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
    # probv's path for a source with rollout_batch
    (got,) = _run_lockstep(source, [(box, seed, True)], source.robustness, 50)
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
        (got,) = _run_lockstep(source, [(box, 5, True)], source.robustness, 1)
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
    draws = [E_INIT.sample(rng, 320) for _ in initials]  # k_max rows and more
    finished = list(source.rollout_batch(initials, [lambda m, a=a: a[:m] for a in draws]))
    assert [i for i, _ in finished] == [1, 3, 0, 2]  # in the order the rows end
    traces = [trace for _, trace in sorted(finished, key=lambda f: f[0])]
    lengths = [t.n_steps for t in traces]
    assert traces[1].termination == "goal" and traces[2].termination == "horizon"
    assert lengths[1] < min(lengths[:1] + lengths[2:])
    assert len(set(lengths)) == 4
    for initial, a, trace in zip(initials, draws, traces):
        stream = functools.partial(next, iter(a))
        assert trace_bits(trace) == trace_bits(rollout_ref(source, initial, stream))


def test_rollout_is_one_row_of_rollout_batch():
    # rollout calls perturb() k_max times before the first step and equals
    # rollout_batch on its one row and the float engine, bit for bit, for the
    # safe controller alone and under an agent; the widest box pushes the
    # perturbed controls past both actuator limits, and so does the agent's
    # wide mask alone
    params = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(20))
    params.policy.weights[-1][...] *= 300.0  # raw actions across (-1, 1)
    wide = IntervalBox([-0.15, -4.0], [0.15, 4.0])
    agent = MaskedPolicy(params, wide, TASK)
    sources = (safe_source(), EvasionSource(TASK, safe_source().controller_factory, agent))
    boxes = (None, E_INIT, E_INIT.scale((41, 5)), wide)
    limits = set()
    for source, seed, box in itertools.product(sources, range(3), boxes):
        initial = source.sample_initial(np.random.default_rng(seed))
        rng, draws = np.random.default_rng(seed), []

        def perturb():
            draws.append(box.sample(rng))
            return draws[-1]

        trace = source.rollout(initial, None if box is None else perturb)
        assert len(draws) == (0 if box is None else TASK.k_max)
        replay, batch_draws = None, None
        if box is not None:
            replay = functools.partial(next, iter(draws))
            batch_draws = [lambda m: np.array(draws[:m])]
        assert trace_bits(trace) == trace_bits(rollout_ref(source, initial, replay))
        ((row, batched),) = source.rollout_batch([initial], batch_draws)
        assert row == 0 and trace_bits(batched) == trace_bits(trace)
        if source.agent is not None and box is None:
            cmd = trace.rows[:, COL_CMD_V : COL_CMD_V + 2]
            limits.update(np.flatnonzero((cmd == (TASK.v_min, -TASK.omega_max)).any(axis=0)))
            limits.update(2 + np.flatnonzero((cmd == (TASK.v_max, TASK.omega_max)).any(axis=0)))
    assert limits == {0, 1, 2, 3}


def test_rollout_batch_reads_no_perturbation_past_a_rows_end():
    # each row's draw returns k_max rows up front; poisoning every row from
    # the row's own step count on with NaN changes no trace and fails no row
    source = safe_source()
    initials = [source.sample_initial(np.random.default_rng([9, i])) for i in range(16)]
    rows = [E_INIT.sample(np.random.default_rng([9, i, 1]), TASK.k_max) for i in range(16)]
    first = dict(source.rollout_batch(initials, [lambda m, a=a: a[:m] for a in rows]))
    lengths = [first[i].n_steps for i in range(16)]
    assert min(lengths) < TASK.k_max and len(set(lengths)) > 2
    steps = np.arange(TASK.k_max)[:, None]
    poisoned = [np.where(steps < n, a, np.nan) for a, n in zip(rows, lengths)]
    again = dict(source.rollout_batch(initials, [lambda m, a=a: a[:m] for a in poisoned]))
    assert sorted(again) == list(range(16))
    for i in range(16):
        assert trace_bits(again[i]) == trace_bits(first[i]), i


@pytest.mark.parametrize(
    "column, value",
    [(2, math.inf), (3, math.inf), (0, math.nan)],
    ids=["theta-inf", "v-inf", "x-nan"],
)
def test_non_finite_initial_state_fails_its_row_at_step_0(column, value):
    # the row fails before any call on it, naming its initial state, and the
    # good row beside it runs on, bit-equal to running alone; a lockstep
    # probv names the sample
    source, good = safe_source(), (0.3, -0.2, 0.5, 0.1)
    bad = np.array((0.3, 0.1, 0.5, 0.1))
    bad[column] = value
    finished = []
    with pytest.raises(ValueError, match=r"^step 0: non-finite initial state \[") as err:
        finished.extend(source.rollout_batch([bad, good]))
    assert err.value.row == 0 and [row for row, _ in finished] == [1]
    ((_, alone),) = source.rollout_batch([good])
    assert trace_bits(finished[0][1]) == trace_bits(alone)

    j, calls = 5, itertools.count()

    class BadSample(EvasionSource):
        def sample_initial(self, rng):
            initial = super().sample_initial(rng)
            if next(calls) == j:
                initial[column] = value
            return initial

    with pytest.raises(RolloutFailure, match="non-finite initial state") as err:
        probv(BadSample(TASK, source.controller_factory), E_INIT, source.robustness, 12, 0.05, 4)
    assert err.value.sample_index == j and err.value.seed == derive_seed(4, j)


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
    # the safe controller behind a closure, without an array method, alone
    # and under a masked agent with a random policy; and that agent over the
    # safe controller's array method
    def safe():
        ctl = SafeController(TASK)
        return lambda robot, obstacle: ctl(robot, obstacle)

    params = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(12))
    agent = MaskedPolicy(params, IntervalBox([-0.02, -0.3], [0.03, 0.4]), TASK)
    batch_factory = safe_source().controller_factory
    cases = ((safe, None), (batch_factory, agent), (safe, agent))
    for (factory, policy), box in itertools.product(cases, (None, E_INIT)):
        reference = EvasionSource(TASK, factory, policy)
        batch_only = BatchOnly(TASK, factory, policy)
        for n in (1, 3, 12, 50):
            want = probv(sequential(reference), box, reference.robustness, n, 0.05, 6)
            got = probv(batch_only, box, batch_only.robustness, n, 0.05, 6)
            assert report_text(got) == report_text(want), (factory, policy, box, n)
        if factory is safe:  # the same verdict as the controller's array method
            batched = EvasionSource(TASK, batch_factory, policy)
            assert report_text(got) == report_text(
                probv(batched, box, reference.robustness, 50, 0.05, 6)
            )


@pytest.mark.parametrize("loaded", [False, True], ids=["init_policy", "loaded"])
def test_agent_lockstep_probv_equals_sequential(tmp_path, loaded):
    # the agent over the safe controller's array method in lockstep against
    # the oracle's one-by-one rollouts, with the default network and both
    # memory orders of its first layer
    params = init_policy(7, 2, PpoConfig(), np.random.default_rng(13))
    if loaded:
        save_policy(params, tmp_path / "p.bin", meta={})
        params, _ = load_policy(tmp_path / "p.bin")
    agent = MaskedPolicy(params, IntervalBox([-0.02, -0.3], [0.03, 0.4]), TASK)
    safe = safe_source().controller_factory
    assert safe().batch
    reference = EvasionSource(TASK, safe, agent)
    batch_only = BatchOnly(TASK, safe, agent)
    for box, n in itertools.product((None, E_INIT), (1, 3, 12, 50)):
        want = probv(sequential(reference), box, reference.robustness, n, 0.05, 7)
        got = probv(batch_only, box, batch_only.robustness, n, 0.05, 7)
        assert report_text(got) == report_text(want), (box, n)


@pytest.mark.parametrize("box", [None, E_INIT], ids=str)
def test_agent_trace_records_the_safe_control_and_the_executed_one(box):
    # the safe columns hold the safe controller's own control, replayed on
    # the trace's states one step at a time; the cmd columns hold the control
    # executed, which the agent moves off it on every step
    params = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(14))
    mask = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    source = EvasionSource(TASK, safe_source().controller_factory, MaskedPolicy(params, mask, TASK))
    initials = [source.sample_initial(np.random.default_rng([8, i])) for i in range(12)]
    draws = None
    if box is not None:
        draws = [functools.partial(box.sample, np.random.default_rng(i)) for i in range(12)]
    for _, trace in source.rollout_batch(initials, draws):
        ctl = SafeController(TASK)
        want = [ctl(RobotState(*r[:4]), ObstacleState(*r[4:8])) for r in trace.rows.tolist()]
        safe = trace.rows[:, COL_SAFE_V : COL_SAFE_V + 2]
        cmd = trace.rows[:, COL_CMD_V : COL_CMD_V + 2]
        assert np.ascontiguousarray(safe).tobytes() == np.array(want).tobytes()
        assert (cmd[:, 1] != safe[:, 1]).all()
        if box is None:
            assert mask.contains(cmd - safe, tol=1e-9)


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
    # the lockstep run alone names the sample
    assert batches == [12]
    assert err.value.sample_index == 5
    assert err.value.seed == derive_seed(4, 5)
    assert "controller fault" in str(err.value)


def test_nan_row_is_named_by_the_one_lockstep_run(monkeypatch):
    # a NaN control in row j of 50 names j and its seed from one
    # rollout_batch call; no sample runs again, alone or through rollout
    base, j = 4, 37
    speed = float(safe_source().sample_initial(np.random.default_rng([base, j, 0]))[3])
    calls = []

    class NanForOne(SafeController):
        def batch(self, robot, obstacle, evading, headings):
            v, omega, evading = super().batch(robot, obstacle, evading, headings)
            v[obstacle[:, 3] == speed] = math.nan
            return v, omega, evading

    class Spy(EvasionSource):
        def rollout(self, initial, perturb=None):
            calls.append("rollout")
            return super().rollout(initial, perturb)

        def rollout_batch(self, initials, perturbations=None):
            calls.append(len(initials))
            return super().rollout_batch(initials, perturbations)

    def no_run_sample(*args):
        raise AssertionError("a sample ran alone")

    monkeypatch.setattr(saferl.verify, "_run_sample", no_run_sample)
    source = Spy(TASK, lambda: NanForOne(TASK))
    with pytest.raises(RolloutFailure) as err:
        probv(source, E_INIT, source.robustness, 50, 0.05, base_seed=base)
    assert calls == [50]
    assert err.value.sample_index == j and err.value.seed == derive_seed(base, j)
    assert "step 0: non-finite control or state" in str(err.value)


def test_robustness_error_names_its_sample():
    # the monitor raises on the traces of samples 9 and 4, or returns NaN on
    # that of sample 6: probv names the lowest such sample
    source = safe_source()
    speeds = [float(source.sample_initial(np.random.default_rng([3, i, 0]))[3]) for i in range(12)]

    def robustness(failing):
        def score(trace):
            i = speeds.index(trace.rows[0, COL_VO])
            if i in failing:
                raise ValueError(f"monitor fault {i}")
            return math.nan if i == 6 else source.robustness(trace)

        return score

    with pytest.raises(RolloutFailure) as err:
        probv(source, None, robustness((9, 4)), 12, 0.05, 3)
    assert (err.value.sample_index, err.value.seed) == (4, derive_seed(3, 4))
    assert str(err.value).endswith("failed: monitor fault 4")
    with pytest.raises(RolloutFailure) as err:
        probv(source, None, robustness((9,)), 12, 0.05, 3)
    assert (err.value.sample_index, err.value.seed) == (6, derive_seed(3, 6))
    assert str(err.value).endswith("failed: non-finite robustness nan")


@pytest.mark.parametrize("where", ["batch", "agent"])
def test_block_fault_that_one_row_repeats_fails_that_row_only(where):
    # the batch or the agent raises on any block that holds row 3 at the
    # step where another row first changes its evade mode: row 3 fails
    # there, and every other row goes on, on its one-row results of that
    # step, with the evade modes and to the trace of a run without the fault
    params = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(12))
    mask = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    initials = [safe_source().sample_initial(np.random.default_rng([6, i])) for i in range(8)]
    speed = initials[3][3]
    runs = {"clean": {}, "faulty": {}}  # each row's evade mode fed in, by its obstacle state
    fault = []  # row 3's obstacle position at the step of the fault
    run = "clean"

    def check(kind, obstacle):
        if run == "faulty" and where == kind and fault[0] in obstacle[:, :2].tolist():
            raise ValueError(f"{where} fault")

    class Recording(SafeController):
        def batch(self, robot, obstacle, evading, headings):
            for key, mode in zip(map(tuple, obstacle.tolist()), evading.tolist()):
                assert runs[run].setdefault(key, mode) == mode, key
            check("batch", obstacle)
            out = super().batch(robot, obstacle, evading, headings)
            if not fault and ((out[2] != evading) & (obstacle[:, 3] != speed)).any():
                fault.append(obstacle[obstacle[:, 3] == speed, :2][0].tolist())
            return out

    class Faulty(MaskedPolicy):
        def __call__(self, robot, obstacle, safe):
            check("agent", obstacle)
            return super().__call__(robot, obstacle, safe)

    source = EvasionSource(TASK, lambda: Recording(TASK), Faulty(params, mask, TASK))
    want = {i: trace_bits(t) for i, t in source.rollout_batch(initials)}
    run, got = "faulty", {}
    with pytest.raises(ValueError, match=f"{where} fault") as err:
        for i, trace in source.rollout_batch(initials):
            got[i] = trace_bits(trace)
    assert err.value.row == 3 and fault
    assert got == {i: bits for i, bits in want.items() if i != 3}
    assert runs["faulty"].items() <= runs["clean"].items()


AGENT_PARAMS = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(15))
AGENT_MASK = IntervalBox([-0.02, -0.3], [0.03, 0.4])
reference_agent = reference.agent_ref  # the float agent that the property patches


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 10),
    box=st.sampled_from([None, E_INIT]),
    base=st.integers(0, 2**16),
)
def test_lockstep_names_the_lowest_failing_sample_as_the_reference_does(data, n, box, base):
    # random samples fail from a random step, by a NaN safe control or by an
    # agent control outside the box; the lockstep run names the sample, with
    # the message, that the float engine names running one sample at a time.
    # A fault finds its sample and step by the obstacle's position, which
    # no control moves.
    faults = data.draw(
        st.dictionaries(
            st.integers(0, n - 1),
            st.tuples(st.integers(0, 250), st.sampled_from(["nan", "out"])),
            min_size=1,
            max_size=3,
        )
    )
    where = {}  # obstacle (x, y) -> (sample, step)
    for i in range(n):
        o = ObstacleState(*safe_source().sample_initial(np.random.default_rng([base, i, 0])))
        for k in range(TASK.k_max):
            where[o.x, o.y] = (i, k)
            o = unicycle_step(o, (o.v, 0.0), TASK.dt)

    def hit(kind, x, y):
        i, k = where[x, y]
        return i in faults and faults[i][1] == kind and k >= faults[i][0]

    class NanFrom(SafeController):
        def __call__(self, robot, obstacle):
            v, omega = super().__call__(robot, obstacle)
            return (math.nan if hit("nan", obstacle.x, obstacle.y) else v), omega

        def batch(self, robot, obstacle, evading, headings):
            v, omega, evading = super().batch(robot, obstacle, evading, headings)
            v[[hit("nan", x, y) for x, y in obstacle[:, :2].tolist()]] = math.nan
            return v, omega, evading

    def away(omega):  # a turn rate whose offset from omega leaves the box
        return -TASK.omega_max if omega > 0 else TASK.omega_max

    class OutFrom(MaskedPolicy):
        def __call__(self, robot, obstacle, safe):
            out = super().__call__(robot, obstacle, safe)
            for j, (x, y) in enumerate(obstacle[:, :2].tolist()):
                if hit("out", x, y):
                    out[j, 1] = away(safe[j, 1])
            return out

    def agent_ref(agent, robot, obstacle, u_safe):
        out = reference_agent(agent, robot, obstacle, u_safe)
        if hit("out", obstacle.x, obstacle.y):
            out[1] = away(u_safe[1])
        return out

    source = EvasionSource(TASK, lambda: NanFrom(TASK), OutFrom(AGENT_PARAMS, AGENT_MASK, TASK))
    with mock.patch.object(reference, "agent_ref", agent_ref):
        try:
            want = probv(sequential(source), box, source.robustness, n, 0.05, base)
        except RolloutFailure as exc:
            want = (exc.sample_index, exc.seed, str(exc))
    lockstep = BatchOnly(TASK, source.controller_factory, source.agent)
    try:
        got = probv(lockstep, box, source.robustness, n, 0.05, base)
    except RolloutFailure as exc:
        got = (exc.sample_index, exc.seed, str(exc))
    if isinstance(want, VerificationReport):
        assert isinstance(got, VerificationReport) and report_text(got) == report_text(want)
    else:
        assert got == want


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
    # a block call that raises is made again on each row alone only to name
    # the failing rows; when every row passes alone the failure depends on
    # the row count and probv reports nothing
    class BatchFault(SafeController):
        def batch(self, robot, obstacle, evading, headings):
            if robot.shape[0] > 1:
                raise ValueError("batch fault")
            return super().batch(robot, obstacle, evading, headings)

    source = safe_source(BatchFault)
    with pytest.raises(RuntimeError, match=r"step 0: a call on 12 rows raised, but each") as err:
        probv(source, E_INIT, source.robustness, 12, 0.05, base_seed=4)
    assert not isinstance(err.value, RolloutFailure)
    assert isinstance(err.value.__cause__, ValueError)
    assert "batch fault" in str(err.value.__cause__)


# ---------------------------------------------------------------------------
# Several runs in one lockstep run
# ---------------------------------------------------------------------------


class CountingBatches(EvasionSource):
    """An EvasionSource that records the row count of each rollout_batch call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.batches = []

    def rollout_batch(self, initials, perturbations=None, **agent_rows):
        self.batches.append(len(initials))
        return super().rollout_batch(initials, perturbations, **agent_rows)


_RUN_BOXES = st.sampled_from([None, E_INIT, E_INIT.scale((11, 2)), E_INIT.scale((41, 5))])


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    runs=st.lists(
        st.tuples(_RUN_BOXES, st.integers(0, 2**32 - 1), st.just(True)), min_size=1, max_size=3
    ),
    n=st.integers(1, 12),
)
def test_probv_runs_equals_separate_probv_calls(runs, n):
    source = CountingBatches(TASK, safe_source().controller_factory)
    got = list(probv_runs(source, runs, source.robustness, n, 0.05))
    assert source.batches == [n * len(runs)]
    want = [probv(source, box, source.robustness, n, 0.05, seed) for box, seed, _ in runs]
    assert [report_text(r) for r in got] == [report_text(r) for r in want]


def _runs_agent() -> MaskedPolicy:
    params = init_policy(7, 2, PpoConfig(hidden=(16,)), np.random.default_rng(21))
    params.policy.weights[-1][...] *= 300.0  # raw actions across (-1, 1)
    return MaskedPolicy(params, IntervalBox([-0.02, -0.3], [0.03, 0.4]), TASK)


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(
    runs=st.lists(
        st.tuples(_RUN_BOXES, st.integers(0, 2**32 - 1), st.booleans()), min_size=1, max_size=3
    ),
    n=st.integers(1, 8),
)
def test_probv_runs_with_and_without_the_agent_equal_separate_probv_calls(runs, n):
    # a run whose agent flag is false equals its probv call on the source
    # without the agent, one whose flag is true its call on the source with
    # it, all runs stepped in one lockstep call
    factory = safe_source().controller_factory
    source = CountingBatches(TASK, factory, _runs_agent())
    got = list(probv_runs(source, runs, source.robustness, n, 0.05))
    assert source.batches == [n * len(runs)]
    without = EvasionSource(TASK, factory)
    want = [
        probv(source if agent else without, box, source.robustness, n, 0.05, seed)
        for box, seed, agent in runs
    ]
    assert [report_text(r) for r in got] == [report_text(r) for r in want]


def test_probv_runs_without_the_agent_needs_rollout_batch():
    # a source without rollout_batch has no rows to mark; a run flagged to
    # run without the agent is refused, and a flagged-on run runs as before
    source, score = sequential(safe_source()), safe_source().robustness
    with pytest.raises(ValueError, match="needs a source with rollout_batch"):
        next(probv_runs(source, [(None, 1, True), (None, 2, False)], score, 2, 0.05))
    (report,) = probv_runs(source, [(None, 1, True)], score, 2, 0.05)
    assert report == probv(source, None, score, 2, 0.05, 1)


def test_rollout_batch_checks_its_agent_rows():
    source = EvasionSource(TASK, safe_source().controller_factory, _runs_agent())
    with pytest.raises(ValueError, match=r"one bool per row, not \(3,\)"):
        next(source.rollout_batch(np.zeros((2, 4)), agent_rows=[True, False, True]))


def test_probv_runs_keeps_an_opaque_controllers_signed_zero_turn_rates():
    # an opaque controller turning at -0.0 and +0.0 on alternate steps; the
    # score counts the -0.0 turn rates executed, so a row of an unperturbed
    # run that a mixed call stepped with a +0.0 perturbation would differ
    def factory():
        ctl, steps = SafeController(TASK), itertools.count()
        return lambda robot, obstacle: (ctl(robot, obstacle)[0], -0.0 if next(steps) % 2 else 0.0)

    def negative_zero_turns(trace):
        w = trace.rows[:, COL_CMD_W]
        return float(np.count_nonzero((w == 0.0) & np.signbit(w)))

    source = CountingBatches(TASK, factory)
    runs = [(None, 3, True), (E_INIT, 4, True), (None, 5, True)]
    got = list(probv_runs(source, runs, negative_zero_turns, 6, 0.05))
    assert source.batches == [18]
    want = [probv(source, box, negative_zero_turns, 6, 0.05, seed) for box, seed, _ in runs]
    assert [report_text(r) for r in got] == [report_text(r) for r in want]
    assert got[0].rho_star > 0 and got[2].rho_star > 0  # -0.0 turns were executed
    assert got[1].rho_star == 0  # perturbed turn rates are never a zero


def test_probv_runs_names_the_first_failing_run():
    # sample 3 of run 1 and sample 1 of run 2 fail: the first failing run
    # raises for its own lowest sample with its own seed, after run 0's report
    bad_runs = {1: 3, 2: 1}
    source = safe_source()
    runs = [(None, 10, True), (E_INIT, 11, True), (E_INIT, 12, True)]
    bad = {
        float(saferl.verify._sample_inputs(source, None, runs[r][1], i)[0][3])
        for r, i in bad_runs.items()
    }

    class NanForSome(SafeController):
        def batch(self, robot, obstacle, evading, headings):
            v, omega, evading = super().batch(robot, obstacle, evading, headings)
            v[np.isin(obstacle[:, 3], list(bad))] = math.nan
            return v, omega, evading

    failing = safe_source(NanForSome)
    reports = probv_runs(failing, runs, failing.robustness, 5, 0.05)
    assert report_text(next(reports)) == report_text(
        probv(source, None, source.robustness, 5, 0.05, 10)
    )
    with pytest.raises(RolloutFailure) as err:
        next(reports)
    assert (err.value.sample_index, err.value.seed) == (3, derive_seed(11, 3))
    assert "non-finite" in str(err.value) and isinstance(err.value.__cause__, ValueError)
    assert next(reports, None) is None
