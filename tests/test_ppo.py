import json
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    clip_by_global_norm,
    flatten_arrays,
    gae_advantages_ref,
    log_prob_of_z_ref,
    policy_sample,
    ppo_update_ref,
    unflatten_arrays,
)
from saferl.boxes import IntervalBox
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import EvasionEnv, ObstacleState, RobotState, TaskConfig, _cos_sin
from saferl.mlp import DenseNet, net_forward
from saferl.ppo import (
    PolicyLoadError,
    PpoConfig,
    RolloutBuffer,
    agent_controller_factory,
    evaluate_policy,
    gae_advantages,
    init_policy,
    load_policy,
    mask_action,
    policy_mean,
    ppo_loss,
    ppo_loss_and_grads,
    ppo_update,
    save_policy,
    train,
    value_estimate,
)
from saferl.ppo import _clipped_log_std, _log_prob_of_z
from saferl.evasion import LOCKSTEP_MIN_ROWS, sample_obstacle
from saferl.ppo import _VALUE_CHUNK, PolicyParams, _collect_window, _window_values
from test_evasion import bits, near_encounters
from saferl.mlp import Adam

TASK = TaskConfig()
BOX = IntervalBox([-0.002, -0.01], [0.002, 0.01])


def make_env_factory(box=BOX, task=TASK):
    return lambda: EvasionEnv(task, lambda: SafeController(task, ControllerConfig()), mask=box)


# ---------------------------------------------------------------------------
# Action masking
# ---------------------------------------------------------------------------


def test_mask_action_examples():
    assert np.allclose(mask_action([0.0, 0.0], (0.25, -0.5), BOX), [0.25, -0.5])
    assert np.allclose(mask_action([1.0, 1.0], (0.1, 0.0), BOX), [0.102, 0.01])
    assert np.allclose(mask_action([-1.0, -1.0], (0.1, 0.0), BOX), [0.098, -0.01])


def test_mask_action_clips_raw():
    out = mask_action([5.0, -7.0], (0.0, 0.0), BOX)
    assert np.allclose(out, [0.002, -0.01])


def test_mask_requires_zero_offset():
    offset_box = IntervalBox([0.001, -0.01], [0.002, 0.01])
    with pytest.raises(ValueError):
        make_env_factory(offset_box)()
    params = init_policy(7, 2, PpoConfig(hidden=(4,)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        agent_controller_factory(params, offset_box, TASK, lambda: None)


def test_masked_output_always_inside_box():
    rng = np.random.default_rng(0)
    for _ in range(200):
        raw = rng.uniform(-1.5, 1.5, 2)
        safe = rng.uniform(-1, 1, 2)
        out = mask_action(raw, safe, BOX)
        assert BOX.contains(out - safe, tol=1e-12)


_raw = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([-1.0, 1.0, -0.0, 0.0, -math.inf, math.inf, 1.0 + 2**-52, -1.0 - 2**-52]),
)
_bound = st.floats(0.0, 2.0)


def _rows(m: int, rows: int, values) -> st.SearchStrategy:
    return st.lists(st.lists(values, min_size=m, max_size=m), min_size=rows, max_size=rows)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 3)), data=st.data())
def test_mask_action_rows_bit_equal_to_one_row_and_inside_the_box(shape, data):
    rows, m = shape
    below = data.draw(st.lists(_bound, min_size=m, max_size=m))
    box = IntervalBox([-b for b in below], data.draw(st.lists(_bound, min_size=m, max_size=m)))
    raw = np.array(data.draw(_rows(m, rows, _raw)))
    safe = np.array(data.draw(_rows(m, rows, st.floats(-5.0, 5.0))))
    got = mask_action(raw, safe, box)
    assert got.shape == (rows, m)
    # each row as AgentController.__call__ maps it, alone and 1-D
    for r, u, out in zip(raw.tolist(), safe.tolist(), got):
        assert np.array_equal(bits(mask_action(r, u, box)), bits(out))
    # every raw action, clipped into [-1, 1]^m, lands in [safe + lower, safe +
    # upper]: exactly at the bottom, since the added offset is never negative;
    # at the top (u + lower) + width may round past u + upper by an ulp or two
    assert (got >= safe + box.lower).all()
    slack = 4 * np.finfo(float).eps * (np.abs(safe) + np.abs(box.lower) + np.abs(box.upper))
    assert (got <= safe + box.upper + slack).all()


# ---------------------------------------------------------------------------
# Policy distribution
# ---------------------------------------------------------------------------


def test_zero_weight_policy_mean_is_zero():
    cfg = PpoConfig(hidden=(4,))
    params = init_policy(3, 2, cfg, np.random.default_rng(0))
    for w in params.policy.weights:
        w[...] = 0.0
    assert np.allclose(policy_mean(params, np.ones(3)), [0.0, 0.0])


def test_sampling_deterministic_given_seed():
    cfg = PpoConfig(hidden=(8,))
    params = init_policy(3, 2, cfg, np.random.default_rng(1))
    obs = np.array([0.3, -0.2, 0.7])
    a1 = [policy_sample(params, obs, np.random.default_rng(42), cfg) for _ in range(5)]
    a2 = [policy_sample(params, obs, np.random.default_rng(42), cfg) for _ in range(5)]
    for (r1, z1, l1), (r2, z2, l2) in zip(a1, a2):
        assert np.array_equal(r1, r2) and np.array_equal(z1, z2) and l1 == l2
    assert np.all(np.abs(np.stack([r for r, _, _ in a1])) < 1.0)


def test_log_prob_matches_empirical_density():
    # 1-D squashed Gaussian: empirical bin frequencies over many draws vs
    # the integral of exp(log prob) over each bin, within 2 percent.
    mean = np.array([0.3])
    log_std = np.array([math.log(0.8)])
    rng = np.random.default_rng(9)
    n = 400_000
    z = mean + np.exp(log_std) * rng.standard_normal((n, 1))
    a = np.tanh(z[:, 0])
    edges = np.linspace(-0.9, 0.9, 25)
    counts, _ = np.histogram(a, bins=edges)
    for i in range(len(edges) - 1):
        lo, hi = edges[i], edges[i + 1]
        grid = np.linspace(lo, hi, 41)
        dens = np.exp(_log_prob_of_z(mean, log_std, np.arctanh(grid)[:, None]))
        prob = float(np.trapezoid(dens, grid))
        if prob < 0.01:
            continue
        empirical = counts[i] / n
        assert abs(empirical - prob) / prob < 0.02


def test_log_prob_includes_squash_correction():
    mean = np.zeros(1)
    log_std = np.zeros(1)
    z = np.array([[1.5]])
    gauss = -0.5 * 1.5**2 - 0.5 * math.log(2 * math.pi)
    correction = math.log(1 - math.tanh(1.5) ** 2 + 1e-6)
    assert _log_prob_of_z(mean, log_std, z)[0] == pytest.approx(gauss - correction)


# ---------------------------------------------------------------------------
# Advantages
# ---------------------------------------------------------------------------


def test_gae_gamma_zero_collapses_to_td_residual():
    rewards = np.array([1.0, 2.0, 3.0])
    values = np.array([0.5, 0.5, 0.5])
    adv, ret = gae_advantages(rewards, values, [0, 0, 1], gamma=0.0, lam=0.7, bootstrap_value=9.0)
    assert np.allclose(adv, rewards - values)
    assert np.allclose(ret, adv + values)


def test_gae_lambda_zero_is_one_step_td():
    rewards = np.array([1.0, 1.0])
    values = np.array([0.3, 0.6])
    adv, _ = gae_advantages(rewards, values, [0, 0], gamma=0.9, lam=0.0, bootstrap_value=0.2)
    assert adv[0] == pytest.approx(1.0 + 0.9 * 0.6 - 0.3)
    assert adv[1] == pytest.approx(1.0 + 0.9 * 0.2 - 0.6)


def test_gae_hand_unrolled():
    # constant reward 1, zero values, gamma 0.5, lambda 0.9, zero bootstrap:
    # delta_t = 1 everywhere; A2 = 1; A1 = 1 + 0.45; A0 = 1 + 0.45 * 1.45
    adv, ret = gae_advantages([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0, 0, 0], 0.5, 0.9, 0.0)
    assert np.allclose(adv, [1.6525, 1.45, 1.0])
    assert np.allclose(ret, adv)


def test_gae_respects_episode_boundaries():
    adv, _ = gae_advantages([1.0, 1.0], [0.0, 5.0], [1, 1], gamma=0.9, lam=0.9, bootstrap_value=7.0)
    # done at t=0 masks both the next value and the recursion
    assert adv[0] == pytest.approx(1.0)
    assert adv[1] == pytest.approx(1.0 - 5.0)


def lambda_returns(rewards, values, dones, gamma, lam, bootstrap_value):
    """Episodic lambda-returns (Sutton & Barto, eq. 12.3) summed directly:
    n-step returns from each t to the end of its episode, bootstrapped from
    the value n steps ahead; the episode's last transition bootstraps nothing
    when it is terminal and ``bootstrap_value`` when the window truncates it."""
    T = len(rewards)
    out = []
    for t in range(T):
        end = next((k for k in range(t, T) if dones[k]), T - 1)
        tail = 0.0 if dones[end] else bootstrap_value
        n_max = end - t + 1
        g_lam = 0.0
        for n in range(1, n_max + 1):
            g_n = sum(gamma**k * rewards[t + k] for k in range(n))
            g_n += gamma**n * (values[t + n] if n < n_max else tail)
            g_lam += (lam ** (n - 1) if n == n_max else (1.0 - lam) * lam ** (n - 1)) * g_n
        out.append(g_lam)
    return np.array(out)


_unit = st.floats(0.0, 1.0)
_finite = st.floats(-10.0, 10.0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    steps=st.lists(st.tuples(_finite, _finite, st.booleans()), min_size=1, max_size=25),
    gamma=_unit,
    lam=_unit,
    bootstrap_value=_finite,
)
def test_gae_equals_per_episode_lambda_return(steps, gamma, lam, bootstrap_value):
    rewards, values, dones = (list(col) for col in zip(*steps))
    adv, ret = gae_advantages(rewards, values, dones, gamma, lam, bootstrap_value)
    want = lambda_returns(rewards, values, dones, gamma, lam, bootstrap_value)
    assert np.allclose(ret, want, rtol=1e-9, atol=1e-9)
    assert np.allclose(adv, want - np.array(values), rtol=1e-9, atol=1e-9)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.booleans()), max_size=40
    ),
    gamma=_unit,
    lam=_unit,
    bootstrap_value=st.floats(-1e3, 1e3),
)
def test_gae_bit_equal_to_numpy_scalar_reference(steps, gamma, lam, bootstrap_value):
    rewards, values, dones = (list(col) for col in zip(*steps)) if steps else ([], [], [])
    got = gae_advantages(np.array(rewards), np.array(values), dones, gamma, lam, bootstrap_value)
    want = gae_advantages_ref(rewards, values, dones, gamma, lam, bootstrap_value)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (len(steps),)
        assert np.array_equal(bits(g), bits(w))


# ---------------------------------------------------------------------------
# Loss and gradients
# ---------------------------------------------------------------------------


def build_batch(params, cfg, rng, B=24, ratio_offsets=(0.0,)):
    obs = rng.standard_normal((B, params.obs_dim))
    mean, _ = net_forward(params.policy, obs)
    log_std = np.clip(params.log_std, cfg.log_std_min, cfg.log_std_max)
    z = mean + np.exp(log_std) * rng.standard_normal((B, params.act_dim))
    logp = _log_prob_of_z(mean, log_std, z)
    offsets = np.asarray(ratio_offsets)
    logp_old = logp + offsets[rng.integers(len(offsets), size=B)]
    return {
        "obs": obs,
        "z": z,
        "logp": logp_old,
        "advantages": rng.standard_normal(B),
        "returns": rng.standard_normal(B),
    }


def finite_difference_grads(params, batch, cfg, h=1e-6):
    arrays = params.param_list()
    flat0 = flatten_arrays(arrays)
    num = np.zeros_like(flat0)

    def loss_at(flat):
        for dst, src in zip(arrays, unflatten_arrays(flat, arrays)):
            dst[...] = src
        val = ppo_loss(params, batch, cfg)
        for dst, src in zip(arrays, unflatten_arrays(flat0, arrays)):
            dst[...] = src
        return val

    for i in range(flat0.size):
        e = np.zeros_like(flat0)
        e[i] = h
        num[i] = (loss_at(flat0 + e) - loss_at(flat0 - e)) / (2 * h)
    return num


@pytest.mark.parametrize(
    "hidden, obs_dim, act_dim, offsets",
    [
        ((), 1, 1, (0.0,)),  # smallest net: 5 parameters total
        ((3,), 2, 1, (0.0,)),
        ((4, 3), 3, 2, (0.0,)),
        ((3,), 2, 2, (-0.5, 0.0, 0.5)),  # exercise clipped-branch gradients
    ],
)
def test_gradients_match_finite_differences(hidden, obs_dim, act_dim, offsets):
    cfg = PpoConfig(hidden=hidden)
    rng = np.random.default_rng(12)
    params = init_policy(obs_dim, act_dim, cfg, rng)
    batch = build_batch(params, cfg, rng, ratio_offsets=offsets)
    _, grads = ppo_loss_and_grads(params, batch, cfg)
    analytic = flatten_arrays(grads)
    numeric = finite_difference_grads(params, batch, cfg)
    rel = np.abs(analytic - numeric) / np.maximum(1e-8, np.maximum(np.abs(analytic), np.abs(numeric)))
    assert rel.max() < 1e-4


def test_zero_advantages_leave_policy_net_untouched():
    cfg = PpoConfig(hidden=(4,))
    rng = np.random.default_rng(3)
    params = init_policy(2, 2, cfg, rng)
    batch = build_batch(params, cfg, rng)
    batch["advantages"] = np.zeros_like(batch["advantages"])
    _, grads = ppo_loss_and_grads(params, batch, cfg)
    n_policy = len(params.policy.params())
    for g in grads[:n_policy]:
        assert np.all(g == 0.0)
    assert np.allclose(grads[n_policy], -cfg.ent_coef)


def test_update_with_zero_learning_rate_is_identity():
    cfg = PpoConfig(hidden=(4,), epochs=2, minibatch_size=8, learning_rate=0.0)
    rng = np.random.default_rng(4)
    params = init_policy(3, 2, cfg, rng)
    before = [p.copy() for p in params.param_list()]
    buffer = RolloutBuffer(16, 3, 2)
    for _ in range(16):
        obs = rng.standard_normal(3)
        _, z, logp = policy_sample(params, obs, rng, cfg)
        buffer.logp[buffer.ptr] = logp
        buffer.add(obs, z, rng.standard_normal(), False, 0.0)
    buffer.finalize(cfg.gamma, cfg.gae_lambda, 0.0)
    adam = Adam(params.flat.size, cfg.learning_rate, eps=cfg.adam_eps)
    ppo_update(params, buffer, cfg, adam, np.random.default_rng(0))
    for p, b in zip(params.param_list(), before):
        assert np.array_equal(p, b)


def test_nonfinite_loss_aborts_update():
    cfg = PpoConfig(hidden=(4,), epochs=1, minibatch_size=8)
    rng = np.random.default_rng(5)
    params = init_policy(2, 1, cfg, rng)
    buffer = RolloutBuffer(8, 2, 1)
    for i in range(8):
        obs = rng.standard_normal(2)
        _, z, logp = policy_sample(params, obs, rng, cfg)
        buffer.logp[i] = logp
        buffer.add(obs, z, math.inf if i == 3 else 0.0, False, 0.0)
    buffer.finalize(cfg.gamma, cfg.gae_lambda, 0.0)
    adam = Adam(params.flat.size, cfg.learning_rate)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite"):
        ppo_update(params, buffer, cfg, adam, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def test_training_reproducible_and_seed_sensitive():
    cfg = PpoConfig(steps=1024, n_steps=512, epochs=2, minibatch_size=64)
    factory = make_env_factory()
    p1, log1 = train(factory, cfg, seed=5)
    p2, log2 = train(factory, cfg, seed=5)
    assert log1 == log2
    for a, b in zip(p1.param_list(), p2.param_list()):
        assert np.array_equal(a, b)
    _, log3 = train(factory, cfg, seed=6)
    assert log3 != log1


def test_training_containment_and_action_diff_range():
    cfg = PpoConfig(steps=1024, n_steps=512, epochs=1, minibatch_size=64)
    env_holder = []

    def factory():
        env = make_env_factory()()
        env_holder.append(env)
        return env

    _, log = train(factory, cfg, seed=2)
    assert env_holder[0].containment_violations == 0
    for row in log:
        assert 0.0 <= row["action_diff"] <= 1.0


def test_untrained_policy_matches_safe_controller_closely():
    cfg = PpoConfig(hidden=(128, 128))
    params = init_policy(7, 2, cfg, np.random.default_rng(0))
    mean, std, _ = evaluate_policy(make_env_factory(), params, 20, seed=11)
    assert abs(mean) < 0.1


def test_deterministic_extraction_bit_identical():
    cfg = PpoConfig(hidden=(8,))
    params = init_policy(7, 2, cfg, np.random.default_rng(2))
    factory = agent_controller_factory(
        params, BOX, TASK, lambda: SafeController(TASK, ControllerConfig())
    )
    from saferl.evasion import ObstacleState, RobotState

    robot = RobotState(-0.2, 0.05, 0.1, 0.12)
    obstacle = ObstacleState(0.1, -0.1, 2.0, 0.1)
    c1, c2 = factory(), factory()
    assert c1(robot, obstacle) == c2(robot, obstacle)
    assert c1(robot, obstacle) == c1(robot, obstacle)
    u_safe = SafeController(TASK, ControllerConfig())(robot, obstacle)
    out = c1(robot, obstacle)
    assert BOX.contains(np.asarray(out) - np.asarray(u_safe), tol=1e-12)


@pytest.mark.parametrize("loaded", [False, True], ids=["init_policy", "loaded"])
def test_agent_batch_rows_bit_equal_to_calls(tmp_path, loaded):
    # init_policy leaves the first layer column-major, a loaded policy is
    # row-major: BLAS rounds the two differently, so both are checked
    params = init_policy(7, 2, PpoConfig(), np.random.default_rng(5))
    if loaded:
        save_policy(params, tmp_path / "p.bin", meta={})
        params, _ = load_policy(tmp_path / "p.bin")
    assert params.policy.weights[0].flags.f_contiguous is not loaded
    mask = IntervalBox([-0.02, -0.3], [0.03, 0.4])
    factory = agent_controller_factory(params, mask, TASK, lambda: SafeController(TASK))
    rng = np.random.default_rng(611)
    states = list(near_encounters(TASK, rng, 2_000))
    modes = rng.random(len(states)) < 0.5
    robot = np.array([[r.x, r.y, r.theta, r.v] for r, _ in states])
    obstacle = np.array([[o.x, o.y, o.theta, o.v] for _, o in states])
    cs = _cos_sin(np.stack((robot[:, 2], obstacle[:, 2]), axis=1))
    v, omega, evading = factory().batch(robot, obstacle, modes, cs)
    for i, ((r, o), mode) in enumerate(zip(states, modes)):
        ctl = factory()
        ctl.safe._evading = bool(mode)
        assert np.array_equal(bits(ctl(r, o)), bits((v[i], omega[i]))), i
        assert ctl.safe.evading == evading[i]
    # rows enter and leave the evade mode
    assert (evading & ~modes).any() and (modes & ~evading).any()
    # the policy moves the control off the safe one on every row
    safe_v, safe_omega, _ = SafeController(TASK).batch(robot, obstacle, modes, cs)
    assert (omega != safe_omega).all() and (v != safe_v).all()


def test_agent_over_an_opaque_safe_controller_has_no_batch():
    params = init_policy(7, 2, PpoConfig(hidden=(4,)), np.random.default_rng(0))
    ctl = SafeController(TASK)
    factory = agent_controller_factory(params, BOX, TASK, lambda: lambda r, o: ctl(r, o))
    assert getattr(factory(), "batch", None) is None
    assert agent_controller_factory(params, BOX, TASK, lambda: SafeController(TASK))().batch


# ---------------------------------------------------------------------------
# Batch-1 policy calls and the flat in-place Adam against the code they
# replaced, bit for bit, on parameters stored as standalone arrays
# ---------------------------------------------------------------------------


def net_forward_ref(net, x):
    h = np.atleast_2d(np.asarray(x, dtype=float))
    n_layers = len(net.weights)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = h @ w + b
        h = z if i == n_layers - 1 else np.tanh(z)
    return h


def policy_sample_ref(policy, log_std, obs, rng, cfg):
    mean = net_forward_ref(policy, obs)[0]
    log_std = np.clip(log_std, cfg.log_std_min, cfg.log_std_max)
    z = mean + np.exp(log_std) * rng.standard_normal(mean.shape)
    assert np.all(np.isfinite(z))
    logp = float(log_prob_of_z_ref(mean[None, :], log_std, z[None, :])[0])
    return np.tanh(z), z, logp


class AdamRef:
    """Adam over a list of arrays, one array at a time."""

    def __init__(self, shapes, lr, beta1=0.9, beta2=0.999, eps=1e-5):
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]

    def step(self, params, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def standalone(arrays):
    """Copies that keep each array's memory order, as separate allocations."""
    return [a.copy(order="K") for a in arrays]


def perturbed_policy(rng):
    """A default-size policy with nonzero biases and log stds on both sides
    of the clip range; its first layer is column-major, as initialised."""
    params = init_policy(7, 2, PpoConfig(), rng)
    params.flat += rng.normal(0.0, 0.05, params.flat.size)
    params.log_std[...] = [-6.5, 1.4]
    assert params.policy.weights[0].flags.f_contiguous
    return params


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("source", ["init", "loaded"])
def test_policy_calls_bit_equal_to_array_reference(source, tmp_path):
    cfg = PpoConfig()
    params = perturbed_policy(np.random.default_rng(31))
    if source == "loaded":  # row-major arrays, copied out of the file payload
        save_policy(params, tmp_path / "p.bin")
        params, _ = load_policy(tmp_path / "p.bin")
    policy = DenseNet(standalone(params.policy.weights), standalone(params.policy.biases))
    value = DenseNet(standalone(params.value.weights), standalone(params.value.biases))
    log_std = params.log_std.copy()
    rng = np.random.default_rng(32)
    draws, draws_ref = np.random.default_rng(33), np.random.default_rng(33)
    for i, obs in enumerate(rng.uniform(-2.0, 2.0, (10_000, 7))):
        obs = obs.tolist() if i % 3 == 0 else obs
        raw, z, logp = policy_sample(params, obs, draws, cfg)
        raw_ref, z_ref, logp_ref = policy_sample_ref(policy, log_std, obs, draws_ref, cfg)
        assert np.array_equal(bits([*raw, *z, logp]), bits([*raw_ref, *z_ref, logp_ref])), i
        got = [*policy_mean(params, obs), value_estimate(params, obs)]
        want = [*np.tanh(net_forward_ref(policy, obs)[0]), float(net_forward_ref(value, obs)[0, 0])]
        assert np.array_equal(bits(got), bits(want)), i


def test_flat_adam_and_clip_bit_equal_to_per_array_reference():
    rng = np.random.default_rng(34)
    params = perturbed_policy(rng)
    ref = standalone(params.param_list())
    adam = Adam(params.flat.size, 3e-4, eps=1e-5)
    adam_ref = AdamRef([p.shape for p in ref], 3e-4, eps=1e-5)
    grad_flat = np.empty_like(params.flat)
    grads = params.views(grad_flat)
    for step in range(50):
        scale = 10.0 ** rng.uniform(-4.0, 2.0)
        grads_ref = [rng.standard_normal(p.shape) * scale for p in ref]
        for g, g_ref in zip(grads, grads_ref):
            g[...] = g_ref
        # the column-major first layer alone: its sum runs in row-major order
        first = clip_by_global_norm(grads[:1], math.inf)
        assert bits(first) == bits(math.sqrt(float(np.sum(grads_ref[0] * grads_ref[0])))), step
        total = clip_by_global_norm(grads, 0.5)
        total_ref = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads_ref)))
        assert bits(total) == bits(total_ref), step
        if total_ref > 0.5:
            for g in grads_ref:
                g *= 0.5 / total_ref
        adam.step(params.flat, grad_flat)
        adam_ref.step(ref, grads_ref)
        for p, p_ref in zip(params.param_list(), ref):
            assert np.array_equal(bits(p), bits(p_ref)), step


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_policy_roundtrip_bit_exact(tmp_path):
    cfg = PpoConfig()
    params = init_policy(7, 2, cfg, np.random.default_rng(8))
    path = tmp_path / "policy.bin"
    sidecar = save_policy(params, path, meta={"mask": BOX.to_dict(), "note": 1})
    loaded, meta = load_policy(path)
    for a, b in zip(params.param_list(), loaded.param_list()):
        assert np.array_equal(a, b)
    assert meta["mask"] == BOX.to_dict()
    assert sidecar.exists()


def test_policy_binary_reaches_the_disk_before_it_replaces(tmp_path, monkeypatch):
    # load_policy cannot tell zero payload pages from weights, so the binary
    # is fsynced before the rename; the JSON sidecar is not
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_size))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "policy.bin"
    save_policy(init_policy(7, 2, PpoConfig(), np.random.default_rng(8)), path)
    assert events == [
        ("fsync", path.stat().st_size),
        ("replace", "policy.bin"),
        ("replace", "policy.json"),
    ]


def test_policy_load_errors(tmp_path):
    cfg = PpoConfig(hidden=(4,))
    params = init_policy(3, 2, cfg, np.random.default_rng(0))
    path = tmp_path / "p.bin"
    save_policy(params, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(PolicyLoadError, match="magic"):
        load_policy(bad_magic)

    truncated = tmp_path / "short.bin"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(PolicyLoadError, match="truncated"):
        load_policy(truncated)

    trailing = tmp_path / "long.bin"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(PolicyLoadError, match="trailing"):
        load_policy(trailing)

    with pytest.raises(PolicyLoadError, match="cannot read"):
        load_policy(tmp_path / "missing.bin")


def test_policy_load_rejects_dims_whose_product_overflows_int64(tmp_path):
    # (2**32 - 1)**2 elements: np.prod wraps it to a negative count
    params = init_policy(3, 2, PpoConfig(hidden=(4,)), np.random.default_rng(0))
    path = tmp_path / "p.bin"
    save_policy(params, path)
    raw = bytearray(path.read_bytes())
    assert raw[12:24] == struct.pack("<III", 2, 3, 4)  # the first array's header
    raw[16:24] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(PolicyLoadError, match="truncated policy payload in " + re.escape(str(path))):
        load_policy(path)


def test_policy_load_rejects_a_sidecar_of_another_binary(tmp_path):
    small = init_policy(7, 2, PpoConfig(hidden=(4,)), np.random.default_rng(0))
    large = init_policy(7, 2, PpoConfig(hidden=(8,)), np.random.default_rng(0))
    path = tmp_path / "policy.bin"
    save_policy(small, path)
    sidecar = path.with_suffix(".json").read_text()
    save_policy(large, path)
    path.with_suffix(".json").write_text(sidecar)  # the new binary beside the old sidecar
    with pytest.raises(
        PolicyLoadError, match=r"policy_sizes is \[7, 4, 2\] in the sidecar, \[7, 8, 2\] in the binary"
    ):
        load_policy(path)

    save_policy(small, path)
    assert path.with_suffix(".json").read_text() == sidecar
    load_policy(path)  # a matching pair loads
    meta = json.loads(sidecar)
    del meta["value_sizes"]
    path.with_suffix(".json").write_text(json.dumps(meta))
    with pytest.raises(PolicyLoadError, match=r"lacks value_sizes \(\[7, 4, 1\] in the binary"):
        load_policy(path)

    for key, bad in (("format_version", 2), ("obs_dim", 6), ("act_dim", 3)):
        path.with_suffix(".json").write_text(json.dumps(dict(json.loads(sidecar), **{key: bad})))
        with pytest.raises(PolicyLoadError, match=f"{key} is {bad} in the sidecar"):
            load_policy(path)

    path.with_suffix(".json").write_text("[1, 2]")
    with pytest.raises(PolicyLoadError, match="not a JSON object"):
        load_policy(path)


# ---------------------------------------------------------------------------
# Evaluation episodes in lockstep and the per-window value pass, against the
# per-step loops they replace
# ---------------------------------------------------------------------------

WIDE = IntervalBox([-0.02, -0.3], [0.03, 0.4])


def policy_in_layout(loaded, tmp_path):
    """A perturbed default-size policy, as initialised (first layers
    column-major) or saved and loaded back (row-major)."""
    params = perturbed_policy(np.random.default_rng(41))
    if loaded:
        save_policy(params, tmp_path / "p.bin", meta={})
        params, _ = load_policy(tmp_path / "p.bin")
    for net in (params.policy, params.value):
        assert net.weights[0].flags.f_contiguous is not loaded
    return params


@pytest.mark.parametrize("loaded", [False, True], ids=["init_policy", "loaded"])
def test_evaluation_returns_bit_equal_to_step_raw_loop(tmp_path, loaded):
    params = policy_in_layout(loaded, tmp_path)
    factory = make_env_factory(WIDE)
    for n in (1, 7, 8, 12, 50):
        seed = 100 + n
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        want, lengths = [], set()
        for obstacle in [sample_obstacle(TASK, rng) for _ in range(n)]:
            env = factory()
            obs, total, done, k = env.reset(obstacle), 0.0, False, 0
            while not done:
                obs, r, done, _ = env.step_raw(policy_mean(params, obs))
                total, k = total + r, k + 1
            want.append(total)
            lengths.add(k)
        mean, std, got = evaluate_policy(factory, params, n, seed)
        assert np.array_equal(bits(got), bits(want)), n
        assert bits(mean) == bits(np.mean(want)) and bits(std) == bits(np.std(want))
        # episodes end at different steps, so rows leave the lockstep set early
        assert n < 8 or len(lengths) > 1


def test_evaluation_steps_episodes_together_from_the_crossover(monkeypatch):
    calls = []
    step_raw = EvasionEnv.step_raw

    def spy(self, raw_action):
        calls.append(1)
        return step_raw(self, raw_action)

    monkeypatch.setattr(EvasionEnv, "step_raw", spy)
    params = init_policy(7, 2, PpoConfig(hidden=(8,)), np.random.default_rng(0))
    for n in (LOCKSTEP_MIN_ROWS, 3 * LOCKSTEP_MIN_ROWS):
        evaluate_policy(make_env_factory(), params, n, seed=3)
        assert not calls, n
    evaluate_policy(make_env_factory(), params, 2, seed=3)
    assert calls


@pytest.mark.parametrize("loaded", [False, True], ids=["init_policy", "loaded"])
def test_window_values_bit_equal_to_value_estimate(tmp_path, loaded):
    params = policy_in_layout(loaded, tmp_path)
    rng = np.random.default_rng(42)
    # two whole chunks and a partial one
    obs = rng.normal(0.0, 0.5, (2 * _VALUE_CHUNK + 37, 7))
    got = _window_values(params, obs)
    want = [value_estimate(params, row) for row in obs]
    assert np.array_equal(bits(got), bits(want))


# ---------------------------------------------------------------------------
# The per-window rollout and the per-epoch update, against the per-step
# sample and the per-minibatch update they replace
# ---------------------------------------------------------------------------


def per_step_window(params, env, n, obs, episode_return, cfg, sample_rng, env_rng):
    """One window of policy_sample + step_raw steps: the buffer columns, the
    next observation, the running return and the finished returns."""
    rows, finished = [], []
    for _ in range(n):
        raw, z, logp = policy_sample(params, obs, sample_rng, cfg)
        next_obs, reward, done, info = env.step_raw(raw)
        rows.append((obs, z, logp, value_estimate(params, obs), reward, done, info["action_diff"]))
        episode_return += reward
        if done:
            finished.append(episode_return)
            episode_return = 0.0
            next_obs = env.reset_random(env_rng)
        obs = next_obs
    return [np.array(col, dtype=float) for col in zip(*rows)], obs, episode_return, finished


@pytest.mark.parametrize("loaded", [False, True], ids=["init_policy", "loaded"])
def test_window_rollout_bit_equal_to_per_step_sampling(tmp_path, loaded):
    params = policy_in_layout(loaded, tmp_path)  # log stds on both sides of the clip range
    cfg = PpoConfig()
    task = TaskConfig(k_max=40)
    factory = make_env_factory(WIDE, task)
    n = 150
    env, env_ref = factory(), factory()
    buffer = RolloutBuffer(n, 7, 2)
    rngs = [np.random.default_rng(s) for s in (51, 52, 51, 52)]
    sample_rng, env_rng, sample_ref, env_ref_rng = rngs
    obs, obs_ref = env.reset_random(env_rng), env_ref.reset_random(env_ref_rng)
    ret, ret_ref = 0.25, 0.25
    dones = 0
    for window in range(3):  # the noise stream and the running return carry over
        obs, ret, finished = _collect_window(params, env, buffer, obs, ret, cfg, sample_rng, env_rng)
        want, obs_ref, ret_ref, finished_ref = per_step_window(
            params, env_ref, n, obs_ref, ret_ref, cfg, sample_ref, env_ref_rng
        )
        got = [buffer.obs, buffer.z, buffer.logp, buffer.value, buffer.reward, buffer.done, buffer.action_diff]
        for name, g, w in zip(("obs", "z", "logp", "value", "reward", "done", "action_diff"), got, want):
            assert np.array_equal(bits(g), bits(w)), (window, name)
        assert np.array_equal(bits(obs), bits(obs_ref)) and bits(ret) == bits(ret_ref)
        assert np.array_equal(bits(finished), bits(finished_ref))
        dones += int(buffer.done.sum())
    assert dones >= 6  # episodes end inside windows


def test_window_rollout_refuses_a_nan_policy_before_stepping(monkeypatch):
    calls = []
    monkeypatch.setattr(EvasionEnv, "step_raw", lambda self, raw: calls.append(raw))
    params = init_policy(7, 2, PpoConfig(hidden=(8,)), np.random.default_rng(0))
    params.policy.weights[0][3, 5] = math.nan
    env = make_env_factory()()
    rng = np.random.default_rng(1)
    buffer = RolloutBuffer(16, 7, 2)
    with pytest.raises(RuntimeError, match="non-finite policy output"):
        _collect_window(params, env, buffer, env.reset_random(rng), 0.0, PpoConfig(), rng, rng)
    assert not calls


def test_clipped_log_std_bit_equal_to_np_clip():
    values = [-math.inf, -7.0, -5.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, math.inf, math.nan]
    params = init_policy(3, len(values), PpoConfig(hidden=(4,)), np.random.default_rng(0))
    params.log_std[...] = values
    for lo, hi in [(-5.0, 1.0), (0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0), (0.5, 0.5)]:
        got = _clipped_log_std(params, PpoConfig(log_std_min=lo, log_std_max=hi))
        assert np.array_equal(bits(got), bits(np.clip(values, lo, hi))), (lo, hi)


def test_window_rollout_computes_the_gap_only_with_the_obstacle_ahead(monkeypatch):
    from saferl import controller

    events = []
    infront, mindistance = controller.infront, controller.mindistance

    def infront_spy(robot, obstacle):
        ahead = infront(robot, obstacle)
        events.append(("infront", robot, obstacle, ahead))
        return ahead

    def mindistance_spy(robot, obstacle, dt, lookahead):
        events.append(("mindistance", robot, obstacle))
        return mindistance(robot, obstacle, dt, lookahead)

    monkeypatch.setattr(controller, "infront", infront_spy)
    monkeypatch.setattr(controller, "mindistance", mindistance_spy)
    params = init_policy(7, 2, PpoConfig(hidden=(8,)), np.random.default_rng(0))
    env = make_env_factory()()
    rng = np.random.default_rng(5)
    buffer = RolloutBuffer(1024, 7, 2)
    _collect_window(params, env, buffer, env.reset_random(rng), 0.0, PpoConfig(), rng, rng)
    steps = [e for e in events if e[0] == "infront"]  # one safe-controller call per step
    assert len(steps) == buffer.n_steps
    want = []
    for _, robot, obstacle, ahead in steps:
        want.append(("infront", robot, obstacle, ahead))
        if ahead:
            want.append(("mindistance", robot, obstacle))
    assert events == want
    behind = sum(not ahead for *_, ahead in steps)
    assert 50 <= behind <= buffer.n_steps - 500
    assert buffer.done.sum() >= 2


def rebuilt(params, copy):
    """``params`` rebuilt from ``copy`` of each of its arrays."""
    arrays = [copy(a) for a in params.param_list()]
    k = 2 * len(params.policy.weights)
    policy = DenseNet(arrays[0:k:2], arrays[1:k:2])
    value = DenseNet(arrays[k + 1 :: 2], arrays[k + 2 :: 2])
    return PolicyParams(policy, arrays[k], value)


def same_layout_copy(params):
    """Standalone copies of every array, each in its memory order."""
    return rebuilt(params, lambda a: a.copy(order="K"))


def test_copy_keeps_memory_order_and_forwards_bit_equal():
    params = perturbed_policy(np.random.default_rng(43))  # first layers column-major
    copied = params.copy()
    for a, b in zip(params.param_list(), copied.param_list()):
        assert (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)
        assert not np.shares_memory(a, b)
    assert np.array_equal(bits(copied.flat), bits(params.flat))
    obs = np.random.default_rng(44).normal(0.0, 1.0, (64, 7))
    for net, net_copy in (
        (params.policy, copied.policy),
        (params.value, copied.value),
        (params.policy, params.policy.copy()),
    ):
        assert net_copy.weights[0].flags.f_contiguous
        for x in (obs, obs[:1], obs[:, None]):  # GEMM, batch-1 and stacked forwards
            assert np.array_equal(bits(net_forward(net_copy, x)[0]), bits(net_forward(net, x)[0]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    n_and_size=st.sampled_from([(100, 64), (128, 64), (64, 64), (40, 16), (37, 8), (8, 8)]),
    epochs=st.integers(1, 3),
    obs_dim=st.integers(1, 7),
    act_dim=st.integers(1, 2),
    hidden=st.sampled_from([(8,), (8, 4), (16, 16)]),
    row_major=st.booleans(),
    max_grad_norm=st.sampled_from([1e-6, 0.5, 1e9]),
    log_std=st.lists(st.floats(-7.0, 2.0), min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_update_bit_equal_to_per_minibatch_reference(
    n_and_size, epochs, obs_dim, act_dim, hidden, row_major, max_grad_norm, log_std, seed
):
    n, size = n_and_size
    cfg = PpoConfig(
        hidden=hidden, n_steps=n, minibatch_size=size, epochs=epochs, max_grad_norm=max_grad_norm
    )
    rng = np.random.default_rng(seed)
    params = init_policy(obs_dim, act_dim, cfg, rng)
    params.flat += rng.normal(0.0, 0.1, params.flat.size)
    params.log_std[...] = log_std[:act_dim]  # the clip range is [-5, 1]
    if row_major:  # every array in C order, as a loaded policy has it
        params = rebuilt(params, np.ascontiguousarray)
    first = params.policy.weights[0].flags
    assert (first.f_contiguous and not first.c_contiguous) is (1 < obs_dim < hidden[0] and not row_major)
    buffer = RolloutBuffer(n, obs_dim, act_dim)
    buffer.obs[...] = rng.normal(0.0, 1.0, buffer.obs.shape)
    mean = net_forward(params.policy, buffer.obs)[0]
    log_std_c = np.clip(params.log_std, cfg.log_std_min, cfg.log_std_max)
    buffer.z[...] = mean + np.exp(log_std_c) * rng.standard_normal(buffer.z.shape)
    buffer.logp[...] = log_prob_of_z_ref(mean, log_std_c, buffer.z) + rng.normal(0.0, 0.3, n)
    buffer.advantages = rng.normal(0.5, 2.0, n)
    buffer.returns = rng.normal(0.0, 1.0, n)

    ref = same_layout_copy(params)
    adam = Adam(params.flat.size, 1e-2, eps=cfg.adam_eps)
    adam_ref = Adam(ref.flat.size, 1e-2, eps=cfg.adam_eps)
    stats = ppo_update(params, buffer, cfg, adam, np.random.default_rng(seed + 1))
    stats_ref = ppo_update_ref(ref, buffer, cfg, adam_ref, np.random.default_rng(seed + 1))
    assert list(stats) == list(stats_ref)
    assert np.array_equal(bits(list(stats.values())), bits(list(stats_ref.values())))
    assert np.array_equal(bits(params.flat), bits(ref.flat))
    assert np.array_equal(bits(adam.m), bits(adam_ref.m))
    assert np.array_equal(bits(adam.v), bits(adam_ref.v))
    assert adam.t == adam_ref.t == epochs * -(-n // size)
