"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive fixtures (expansion search, trained agents) are module
scoped and shared across criteria.
"""

import math

import numpy as np
import pytest

from oracle_stl import brute_robustness, brute_satisfies, enumerate_formulas, random_formula
from reference import flatten_arrays
from saferl.boxes import IntervalBox
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import EvasionEnv, EvasionSource, TaskConfig
from saferl.ppo import (
    MaskedPolicy,
    PpoConfig,
    evaluate_policy,
    init_policy,
    ppo_loss_and_grads,
    train,
)
from saferl.stl import Literal, Predicate, PredicateTable, Signal, robustness, satisfies
from saferl.verify import InitialSetTooLarge, confidence, find_expansion_set, probv
from test_expansion import E_INIT, DELTA, WidthThresholdSource, identity
from test_ppo import build_batch, finite_difference_grads

TASK = TaskConfig()
CTRL = ControllerConfig()


def safe_factory():
    return SafeController(TASK, CTRL)


@pytest.fixture(scope="module")
def safe_source():
    return EvasionSource(TASK, safe_factory)


@pytest.fixture(scope="module")
def expansion(safe_source):
    result = find_expansion_set(
        safe_source,
        IntervalBox([-2e-4, -5e-3], [2e-4, 5e-3]),
        np.array([10.0, 1.0]),
        safe_source.robustness,
        n=50,
        epsilon=0.05,
        base_seed=90210,
        max_iters=25,
    )
    return result


@pytest.fixture(scope="module")
def trained_agents(expansion):
    box = expansion.box
    factory = lambda: EvasionEnv(TASK, safe_factory, mask=box)  # noqa: E731
    cfg = PpoConfig(steps=100_000)
    agents = []
    for seed in (11, 22, 33):
        params, _ = train(factory, cfg, seed)
        mean, std, _ = evaluate_policy(factory, params, 50, seed=9000 + seed)
        agents.append((seed, params, mean))
    return agents


def test_criterion_1_confidence_arithmetic():
    value = confidence(0.05, 50)
    assert value == pytest.approx(0.9231, abs=1e-4)
    assert confidence(1.0, 3) == 1.0
    assert confidence(0.05, 1) == pytest.approx(0.05)
    print(f"\nACCEPTANCE 1 PASS: confidence(0.05, 50) = {value:.6f} (target 0.9231 +- 1e-4)")


def test_criterion_2_stl_monitor_soundness():
    # Exhaustive structural enumeration to depth 2 plus randomized deeper
    # formulas (full enumeration to depth 4 is combinatorially infeasible:
    # it exceeds 1e9 trees), against a pool of 200 random signals; the
    # library Boolean and quantitative semantics must agree with each other
    # in sign and with the independent brute-force evaluators in value.
    fns = {"p": lambda s: s[..., 0] - 1.0, "q": lambda s: 2.0 - np.abs(s[..., 1])}
    table = PredicateTable(fns)
    leaves = [Predicate("p"), Predicate("q"), Literal(True), Literal(False)]
    rng = np.random.default_rng(1234)
    pool = [
        Signal(rng.uniform(-3, 3, size=(int(rng.integers(1, 11)), 2)), dt=0.5)
        for _ in range(200)
    ]

    checked = 0

    def check(formula, signal, k):
        nonlocal checked
        rho = robustness(formula, signal, k, table)
        sat = satisfies(formula, signal, k, table)
        assert (rho >= 0) == sat
        assert sat == brute_satisfies(formula, signal.states, signal.dt, k, fns)
        assert rho == brute_robustness(formula, signal.states, signal.dt, k, fns)
        checked += 1

    exhaustive = enumerate_formulas(2, leaves, [(0.0, 1.0)])
    for i, formula in enumerate(exhaustive):
        check(formula, pool[i % len(pool)], 0)

    intervals = [(0.0, 0.5), (0.0, 1.0), (0.5, 2.0), (1.0, math.inf), (0.0, math.inf)]
    for i in range(2000):
        formula = random_formula(rng, 4, leaves, intervals)
        signal = pool[int(rng.integers(len(pool)))]
        for k in (0, signal.last_index // 2):
            check(formula, signal, k)

    print(
        f"\nACCEPTANCE 2 PASS: {checked} monitor evaluations "
        f"({len(exhaustive)} exhaustive formulas to depth 2, 2000 random to depth 4) "
        "agree with the brute-force oracle and are sign-sound"
    )


def test_criterion_3_expansion_algorithm_semantics():
    # grow-until-fail returns the last verified set
    source = WidthThresholdSource(threshold=0.031)
    result = find_expansion_set(source, E_INIT, DELTA, identity, 8, 0.05, 1, max_iters=50)
    assert result.converged and result.box == E_INIT.scale(1.0 + 2 * DELTA)
    # initial failure signals the caller
    with pytest.raises(InitialSetTooLarge):
        find_expansion_set(
            WidthThresholdSource(threshold=0.005), E_INIT, DELTA, identity, 8, 0.05, 2
        )
    # always-pass hits the iteration cap, still returning a verified set
    capped = find_expansion_set(
        WidthThresholdSource(threshold=1e9), E_INIT, DELTA, identity, 8, 0.05, 3, max_iters=4
    )
    assert not capped.converged and capped.box == E_INIT.scale(1.0 + 4 * DELTA)
    # every returned set re-verifies under its recorded seed
    for res in (result, capped):
        rerun = probv(
            WidthThresholdSource(threshold=0.031 if res is result else 1e9),
            res.box,
            identity,
            res.verified_report.n_samples,
            res.verified_report.epsilon,
            res.verified_report.base_seed,
        )
        assert rerun == res.verified_report
    print("\nACCEPTANCE 3 PASS: growth-loop branch semantics and re-verification confirmed")


def test_criterion_4_step1_verification(safe_source, expansion):
    report = probv(
        safe_source,
        expansion.box,
        safe_source.robustness,
        n=50,
        epsilon=0.05,
        base_seed=31337,
    )
    assert report.rho_star >= 0.0
    assert report.confidence == pytest.approx(0.9231, abs=1e-4)
    assert report.confidence == confidence(0.05, 50)
    assert report.rho_star == min(report.robustnesses)
    assert len(report.robustnesses) == 50
    print(
        f"\nACCEPTANCE 4 PASS: perturbed safe controller verified, "
        f"expansion box {expansion.box}, rho_star = {report.rho_star:.4f} >= 0, "
        f"confidence = {report.confidence:.4f}"
    )


def test_criterion_5_masking_containment(expansion):
    env = EvasionEnv(TASK, safe_factory, mask=expansion.box)
    cfg = PpoConfig(steps=10_240, n_steps=2048, epochs=2)
    train(lambda: env, cfg, seed=5150)
    assert env.containment_violations == 0
    print(
        "\nACCEPTANCE 5 PASS: 10240 training steps, every applied control inside "
        "the safe-control action box (0 violations)"
    )


def test_criterion_6_gradient_correctness():
    rng = np.random.default_rng(777)
    worst = 0.0
    for hidden, obs_dim, act_dim, offsets in [
        ((), 1, 1, (0.0,)),
        ((3,), 2, 1, (0.0,)),
        ((4, 3), 3, 2, (-0.5, 0.0, 0.5)),
    ]:
        cfg = PpoConfig(hidden=hidden)
        params = init_policy(obs_dim, act_dim, cfg, rng)
        batch = build_batch(params, cfg, rng, ratio_offsets=offsets)
        _, grads = ppo_loss_and_grads(params, batch, cfg)
        analytic = flatten_arrays(grads)
        numeric = finite_difference_grads(params, batch, cfg)
        rel = np.abs(analytic - numeric) / np.maximum(
            1e-8, np.maximum(np.abs(analytic), np.abs(numeric))
        )
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    print(f"\nACCEPTANCE 6 PASS: analytic gradients match finite differences (max rel err {worst:.2e})")


def test_criterion_7_step2_learning(trained_agents):
    means = {seed: mean for seed, _, mean in trained_agents}
    positive = [seed for seed, mean in means.items() if mean > 0]
    assert len(positive) >= 2, f"eval means: {means}"
    print(
        "\nACCEPTANCE 7 PASS: 100k-step training, deterministic eval over 50 episodes, "
        f"mean episode reward by seed = { {s: round(m, 3) for s, m in means.items()} } "
        f"({len(positive)}/3 seeds > 0)"
    )


def test_criterion_8_step3_verification(safe_source, expansion, trained_agents):
    seed, params, mean = max(trained_agents, key=lambda item: item[2])
    agent_source = EvasionSource(TASK, safe_factory, MaskedPolicy(params, expansion.box, TASK))
    report = probv(
        agent_source, None, agent_source.robustness, n=50, epsilon=0.05, base_seed=60601
    )
    assert report.rho_star >= 0.0

    # Paired 200-sample comparison: same initial-condition stream for the
    # deterministic safe controller and the trained agent.
    base = 424242
    agent_hist = probv(
        agent_source, None, agent_source.robustness, n=200, epsilon=0.05, base_seed=base
    )
    safe_hist = probv(
        safe_source, None, safe_source.robustness, n=200, epsilon=0.05, base_seed=base
    )
    agent_mean = float(np.mean(agent_hist.robustnesses))
    safe_mean = float(np.mean(safe_hist.robustnesses))
    assert agent_mean >= safe_mean - 0.05
    print(
        f"\nACCEPTANCE 8 PASS: trained agent (seed {seed}) rho_star = "
        f"{report.rho_star:.4f} >= 0; 200-sample robustness mean "
        f"{agent_mean:.4f} vs safe controller {safe_mean:.4f} (soft ordering holds)"
    )


def test_criterion_9_determinism(tmp_path):
    from saferl.pipeline import default_config, run_verify_safe

    cfg = default_config()
    _, paths_a = run_verify_safe(cfg, tmp_path / "a")
    _, paths_b = run_verify_safe(cfg, tmp_path / "b")
    for key in ("report", "samples", "manifest", "expansion"):
        assert paths_a[key].read_bytes() == paths_b[key].read_bytes()
    print(
        "\nACCEPTANCE 9 PASS: re-running the verification stage reproduces "
        "byte-identical JSON/CSV artifacts"
    )
