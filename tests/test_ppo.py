import json
import math

import numpy as np
import pytest

from saferl.boxes import IntervalBox
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import EvasionEnv, TaskConfig
from saferl.mlp import flatten_arrays, net_forward, unflatten_arrays
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
    policy_sample,
    ppo_loss,
    ppo_loss_and_grads,
    ppo_update,
    save_policy,
    train,
)
from saferl.ppo import _log_prob_of_z
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
        raw, z, logp = policy_sample(params, obs, rng, cfg)
        buffer.add(obs, z, raw, logp, 0.0, rng.standard_normal(), False, 0.0)
    buffer.finalize(cfg.gamma, cfg.gae_lambda, 0.0)
    adam = Adam([p.shape for p in params.param_list()], cfg.learning_rate, eps=cfg.adam_eps)
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
        raw, z, logp = policy_sample(params, obs, rng, cfg)
        buffer.add(obs, z, raw, logp, 0.0, math.inf if i == 3 else 0.0, False, 0.0)
    buffer.finalize(cfg.gamma, cfg.gae_lambda, 0.0)
    adam = Adam([p.shape for p in params.param_list()], cfg.learning_rate)
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
