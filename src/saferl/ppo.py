"""Clipped-surrogate policy optimization with a squashed Gaussian policy.

The policy and value networks are small dense nets evaluated and
differentiated by hand (:mod:`saferl.mlp`); no autodiff framework is
involved.  Actions are parameterized in [-1, 1]^m: the network mean is
squashed by tanh, and the raw action is mapped affinely into the interval
box around the safe controller output, so every executed control stays
inside that box up to rounding.  Training, its evaluation and the reward
calibration map it as :meth:`saferl.evasion.EvasionEnv.step_raw` does, as
``u + (lower + x)``, whether an episode plays through ``step_raw`` or in
lockstep through :meth:`saferl.evasion.EvasionSource.rollout_batch`; the
trained agent (:class:`MaskedPolicy`) maps it with :func:`mask_action` as
``(u + lower) + x``, where ``x = 0.5 * (raw + 1) * width``; the two
addition orders can round differently.

Gradient notes: the tanh density correction of a stored sample depends only
on the stored pre-squash draw, so it cancels from probability ratios; the
entropy bonus regularizes the underlying Gaussian, whose entropy is
state-independent for a state-independent log standard deviation.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomic import atomic_open, write_json
from .boxes import IntervalBox
from .evasion import (
    _check_fields,
    _clamp_rows,
    _is_finite,
    _observe_rows,
    require_zero_offset,
    sample_obstacle,
)
from .mlp import (
    Adam,
    DenseNet,
    net_backward,
    net_forward,
    net_init,
)

__all__ = [
    "PpoConfig",
    "PolicyParams",
    "RolloutBuffer",
    "PolicyLoadError",
    "init_policy",
    "mask_action",
    "gae_advantages",
    "ppo_loss_and_grads",
    "ppo_update",
    "train",
    "evaluate_policy",
    "MaskedPolicy",
    "save_policy",
    "load_policy",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SQUASH_EPS = 1e-6


@dataclass(frozen=True)
class PpoConfig:
    """Optimizer and rollout settings, overridable via the run configuration."""

    hidden: tuple[int, ...] = (128, 128)
    steps: int = 100_000
    n_steps: int = 2048
    minibatch_size: int = 64
    epochs: int = 10
    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_range: float = 0.2
    vf_coef: float = 0.05
    ent_coef: float = 0.01
    max_grad_norm: float = 0.5
    adam_eps: float = 1e-5
    log_std_init: float = 0.0
    log_std_min: float = -5.0
    log_std_max: float = 1.0
    eval_episodes: int = 50

    def __post_init__(self):
        counts = ("steps", "n_steps", "minibatch_size", "epochs", "eval_episodes")
        rules = [(name, getattr(self, name) >= 1, "at least 1") for name in counts]
        for name in ("learning_rate", "clip_range", "adam_eps"):
            value = getattr(self, name)
            rules.append((name, _is_finite(value) and value > 0, "finite and positive"))
        for name in ("gamma", "gae_lambda"):
            rules.append((name, 0 <= getattr(self, name) <= 1, "in [0, 1]"))
        for name in ("vf_coef", "ent_coef", "log_std_init"):
            rules.append((name, _is_finite(getattr(self, name)), "finite"))
        number = _is_finite(self.max_grad_norm) or self.max_grad_norm in (math.inf, -math.inf)
        rules.append(("max_grad_norm", number, "a number"))
        rules.append(("hidden", all(width >= 1 for width in self.hidden), "widths of at least 1"))
        rules.append(("log_std_min", self.log_std_min <= self.log_std_max, "at most log_std_max"))
        _check_fields(self, rules)


@dataclass
class PolicyParams:
    """Policy net (obs -> action means), state-independent log stds, value net.

    On construction the arrays are copied into one float64 vector ``flat``, in
    :meth:`param_list` order, and every array becomes a view of it; the
    optimizer updates ``flat`` in place.  Each array keeps its memory order
    (a transposed orthogonal init is column-major): BLAS rounds a product
    with a column-major matrix differently, so the order is part of the
    parameters' value.
    """

    policy: DenseNet
    log_std: np.ndarray
    value: DenseNet
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = self.param_list()
        self._layout = [
            (a.shape, "F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C")
            for a in arrays
        ]
        self.flat = np.empty(sum(a.size for a in arrays))
        views = self.views(self.flat)
        for view, a in zip(views, arrays):
            view[...] = a
        self.policy, self.log_std, self.value = _split(views, len(self.policy.weights))

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Arrays shaped and ordered like :meth:`param_list`, as views of a
        flat vector laid out like ``self.flat``."""
        out, offset = [], 0
        for shape, order in self._layout:
            size = math.prod(shape)
            out.append(flat[offset : offset + size].reshape(shape, order=order))
            offset += size
        return out

    @property
    def obs_dim(self) -> int:
        return self.policy.sizes[0]

    @property
    def act_dim(self) -> int:
        return self.policy.sizes[-1]

    def param_list(self) -> list[np.ndarray]:
        return self.policy.params() + [self.log_std] + self.value.params()

    def copy(self) -> "PolicyParams":
        """A standalone copy that keeps each array's memory order, so it
        forwards bit-equal to ``self``."""
        return PolicyParams(self.policy, self.log_std, self.value)


def _split(arrays: list, n_layers: int) -> tuple[DenseNet, np.ndarray, DenseNet]:
    """The policy net, log stds and value net of ``arrays`` in
    :meth:`PolicyParams.param_list` order, the policy net's ``n_layers``
    layers first."""
    k = 2 * n_layers
    policy = DenseNet(arrays[0:k:2], arrays[1:k:2])
    return policy, arrays[k], DenseNet(arrays[k + 1 :: 2], arrays[k + 2 :: 2])


def init_policy(
    obs_dim: int, act_dim: int, cfg: PpoConfig, rng: np.random.Generator
) -> PolicyParams:
    policy = net_init((obs_dim, *cfg.hidden, act_dim), rng, out_gain=0.01)
    value = net_init((obs_dim, *cfg.hidden, 1), rng, out_gain=1.0)
    log_std = np.full(act_dim, float(cfg.log_std_init))
    return PolicyParams(policy=policy, log_std=log_std, value=value)


# ---------------------------------------------------------------------------
# Action masking
# ---------------------------------------------------------------------------


def mask_action(raw, safe_u, box: IntervalBox) -> np.ndarray:
    """Map a raw action in [-1, 1]^m affinely into ``safe_u + box``:
    ``out[i] = safe_u[i] + (raw[i] + 1)/2 * (upper[i] - lower[i]) + lower[i]``.
    On ``(rows, m)`` arrays each row is mapped alone."""
    raw = np.clip(np.asarray(raw, dtype=float), -1.0, 1.0)
    return np.asarray(safe_u, dtype=float) + box.lower + 0.5 * (raw + 1.0) * box.widths


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


def _clipped_log_std(params: PolicyParams, cfg: PpoConfig) -> np.ndarray:
    # np.clip's values, ties and NaNs included, without its Python wrapper
    return _clamp_rows(params.log_std, cfg.log_std_min, cfg.log_std_max)


def _log_prob_of_z(mean, log_std, z) -> np.ndarray:
    """Log density of tanh(z) under the squashed Gaussian, per batch row."""
    zn = (z - mean) / np.exp(log_std)
    return _squashed_log_prob(zn * zn, log_std, _squash_correction(z))


def _squash_correction(z) -> np.ndarray:
    """The tanh density correction ``sum(log(1 - tanh(z)**2 + eps))`` of
    each row of pre-squash draws ``z``; it depends on nothing else."""
    return np.add.reduce(np.log(1.0 - np.tanh(z) ** 2 + _SQUASH_EPS), axis=-1)


def _squashed_log_prob(zn2, log_std, correction) -> np.ndarray:
    """:func:`_log_prob_of_z` from the squared standardized draw
    ``zn2 = ((z - mean) / exp(log_std)) ** 2`` and the draws'
    :func:`_squash_correction`.  ``np.add.reduce`` is ``np.sum`` without
    its Python wrapper."""
    gauss = (
        -0.5 * np.add.reduce(zn2, axis=-1)
        - np.add.reduce(log_std)
        - 0.5 * zn2.shape[-1] * _LOG_2PI
    )
    return gauss - correction


def _row_forward(net: DenseNet, obs: np.ndarray) -> np.ndarray:
    """``net``'s output for each row of the ``(rows, obs_dim)`` array
    ``obs``.  The forward runs on the stacked ``(rows, 1, obs_dim)`` input,
    which rounds as one batch-1 forward per row; a plain ``(rows, obs_dim)``
    product does not."""
    return net_forward(net, obs[:, None])[0][:, 0]


# Rows per stacked value forward after an update window.  One pass over the
# whole window holds all its hidden activations at once: with n_steps = 2048
# it raised the peak RSS of an 8192-step train stage from 40.0 to 43.4 MB.
_VALUE_CHUNK = 256


def _window_values(params: PolicyParams, obs: np.ndarray) -> np.ndarray:
    """The value net's estimate for each row of ``obs``, bit-equal to one
    batch-1 forward per row, in stacked chunks of ``_VALUE_CHUNK`` rows."""
    return np.concatenate(
        [
            _row_forward(params.value, obs[lo : lo + _VALUE_CHUNK])[:, 0]
            for lo in range(0, obs.shape[0], _VALUE_CHUNK)
        ]
    )


class MaskedPolicy:
    """The deterministic extracted policy as the RL term of step 2 on top of
    a safe controller: a block of rows' safe controls ``safe`` maps to the
    executed controls ``mask_action(tanh(policy(obs)), safe, mask)``, where
    ``obs`` is :func:`~saferl.evasion.observe` of each row's states.

    :class:`~saferl.evasion.EvasionSource` applies it, when given, to the
    clamped safe control of every active row at every step, or of the rows
    its ``rollout_batch`` call marks as ``agent_rows``.  The policy
    forward is :func:`_row_forward`, bit-equal to one batch-1 forward per
    row, and :func:`mask_action` maps each row of its ``(rows, 2)`` arrays
    as it maps one row alone.  Raises ``ValueError`` when ``mask`` lacks
    the zero offset.
    """

    def __init__(self, params: PolicyParams, mask: IntervalBox, task_cfg):
        require_zero_offset(mask)
        self.params = params
        self.mask = mask
        self.task_cfg = task_cfg

    def __call__(self, robot: np.ndarray, obstacle: np.ndarray, safe: np.ndarray) -> np.ndarray:
        """The executed controls of the ``(rows, 4)`` robot and obstacle
        states and their ``(rows, 2)`` safe controls."""
        obs = _observe_rows(robot, obstacle, self.task_cfg)
        return mask_action(np.tanh(_row_forward(self.params.policy, obs)), safe, self.mask)


# ---------------------------------------------------------------------------
# Rollout storage and advantages
# ---------------------------------------------------------------------------


def gae_advantages(rewards, values, dones, gamma, lam, bootstrap_value):
    """Generalized advantage recursion.

    ``dones[t]`` marks transitions whose action ended the episode, so the
    recursion never leaks value across episode boundaries; a truncated tail
    is bootstrapped with ``bootstrap_value``.  Returns (advantages,
    returns) with ``returns = advantages + values``.  The recursion runs on
    Python floats, whose arithmetic is that of numpy's float64 scalars.
    """
    values = np.asarray(values, dtype=float)
    r, v = np.asarray(rewards, dtype=float).tolist(), values.tolist()
    nonterminal = (1.0 - np.asarray(dones, dtype=float)).tolist()
    advantages = [0.0] * len(r)
    last, next_value = 0.0, bootstrap_value
    for t in range(len(r) - 1, -1, -1):
        delta = r[t] + gamma * next_value * nonterminal[t] - v[t]
        last = delta + gamma * lam * nonterminal[t] * last
        advantages[t] = last
        next_value = v[t]
    advantages = np.array(advantages)
    return advantages, advantages + values


class RolloutBuffer:
    """Fixed-size on-policy storage for one update window, one column per
    field.  :func:`_collect_window` writes a window's columns, its log probs
    and values once the window is complete; :meth:`finalize` then computes
    the advantages and returns.
    """

    def __init__(self, n_steps: int, obs_dim: int, act_dim: int):
        self.n_steps = n_steps
        self.obs = np.zeros((n_steps, obs_dim))
        self.z = np.zeros((n_steps, act_dim))
        self.logp = np.zeros(n_steps)
        self.value = np.zeros(n_steps)
        self.reward = np.zeros(n_steps)
        self.done = np.zeros(n_steps)
        self.action_diff = np.zeros(n_steps)
        self.advantages = np.zeros(n_steps)
        self.returns = np.zeros(n_steps)

    def finalize(self, gamma: float, lam: float, bootstrap_value: float) -> None:
        self.advantages, self.returns = gae_advantages(
            self.reward, self.value, self.done, gamma, lam, bootstrap_value
        )


# ---------------------------------------------------------------------------
# Loss and update
# ---------------------------------------------------------------------------

_STATS = ("loss", "policy_loss", "value_loss", "entropy", "approx_kl", "clip_fraction")


def _loss_and_grads(
    params: PolicyParams, obs, z, correction, logp_old, adv, ret, cfg: PpoConfig, grads
):
    """The objective of one minibatch and its exact gradients, given the
    draws' :func:`_squash_correction`.

    The gradients are written into ``grads``, arrays ordered like
    ``param_list()``; the values of :data:`_STATS` are returned in order.
    The backward passes overwrite the forward caches (:func:`net_backward`).
    Means are ``np.add.reduce(x) / B`` and clips :func:`_clamp_rows`: the
    values of ``np.mean`` and ``np.clip`` without their Python wrappers.
    """
    B = obs.shape[0]
    n_policy = 2 * len(params.policy.weights)
    lo, hi = 1.0 - cfg.clip_range, 1.0 + cfg.clip_range

    mean, cache_p = net_forward(params.policy, obs)
    log_std = _clipped_log_std(params, cfg)
    std = np.exp(log_std)
    zn = (z - mean) / std
    zn2 = zn * zn
    log_ratio = _squashed_log_prob(zn2, log_std, correction) - logp_old
    ratio = np.exp(log_ratio)

    unclipped = ratio * adv
    clipped = _clamp_rows(ratio, lo, hi) * adv
    policy_loss = -float(np.add.reduce(np.minimum(unclipped, clipped)) / B)

    v, cache_v = net_forward(params.value, obs)
    v_err = v[:, 0] - ret
    value_loss = float(np.add.reduce(v_err**2) / B)

    entropy = float(np.add.reduce(log_std + 0.5 * (1.0 + _LOG_2PI)))
    total = policy_loss + cfg.vf_coef * value_loss - cfg.ent_coef * entropy

    # d(-mean(min))/d ratio: unclipped branch passes adv through; the clipped
    # branch only inside the clip window (ties give identical values/grads).
    in_window = (ratio > lo) & (ratio < hi)
    dsurr_dratio = np.where((unclipped <= clipped) | in_window, adv, 0.0)
    dlogp = (-dsurr_dratio / B) * ratio

    dmean = dlogp[:, None] * zn / std
    dls = np.add.reduce(dlogp[:, None] * (zn2 - 1.0), axis=0)
    dls -= cfg.ent_coef  # entropy bonus, per dimension
    ls_inside = (params.log_std > cfg.log_std_min) & (params.log_std < cfg.log_std_max)
    np.multiply(dls, ls_inside, out=grads[n_policy])

    net_backward(params.policy, cache_p, dmean, out=grads[:n_policy])
    dv = (2.0 * cfg.vf_coef / B) * v_err
    net_backward(params.value, cache_v, dv[:, None], out=grads[n_policy + 1 :])

    approx_kl = float(np.add.reduce(ratio - 1.0 - log_ratio) / B)
    # the mean of a Boolean array: its exact count over B, rounded once
    clip_fraction = float(np.count_nonzero(np.abs(ratio - 1.0) > cfg.clip_range) / B)
    return total, policy_loss, value_loss, entropy, approx_kl, clip_fraction


def ppo_loss_and_grads(params: PolicyParams, batch: dict, cfg: PpoConfig):
    """Loss statistics plus exact gradients ordered like ``param_list()``,
    for a batch dict with keys obs, z, logp, advantages and returns.

    The gradients are views of a fresh flat vector laid out like
    ``params.flat``.
    """
    grads = params.views(np.empty_like(params.flat))
    stats = _loss_and_grads(
        params,
        batch["obs"],
        batch["z"],
        _squash_correction(batch["z"]),
        batch["logp"],
        batch["advantages"],
        batch["returns"],
        cfg,
        grads,
    )
    return dict(zip(_STATS, stats)), grads


def ppo_update(
    params: PolicyParams,
    buffer: RolloutBuffer,
    cfg: PpoConfig,
    adam: Adam,
    shuffle_rng: np.random.Generator,
) -> dict:
    """Run the configured epochs of minibatch steps over a full buffer.

    Once per update (one window) the draws' :func:`_squash_correction`
    becomes one more column of the buffer.  Each epoch gathers the columns
    once, in the order of a fresh permutation, normalizes the advantages of
    every minibatch at once (:func:`_normalize_rows`) and takes its
    minibatches as contiguous slices.  The gradient is clipped to
    ``max_grad_norm`` in global 2-norm, each array's sum of squares running
    in row-major order whatever its memory order, before one Adam step on
    the flat parameters.  Raises on a non-finite loss.  Returns the mean of
    each loss statistic over the minibatches.
    """
    n, size = buffer.n_steps, cfg.minibatch_size
    whole = n - n % size  # the rows of the full minibatches
    columns = (buffer.obs, buffer.z, _squash_correction(buffer.z), buffer.logp)
    columns += (buffer.advantages, buffer.returns)  # in _loss_and_grads' order
    shuffled = [np.empty_like(column) for column in columns]
    advantages = shuffled[4]
    grad_flat = np.empty_like(params.flat)
    grads = params.views(grad_flat)
    squares = np.empty_like(params.flat)
    # Each array's squares in row-major order: a 1-D view, taken here, of a
    # C-ordered array; a column-major one is copied by ravel() at each step.
    square_rows = [s.ravel() if s.flags.c_contiguous else s for s in params.views(squares)]
    sums = [0.0] * len(_STATS)
    count = 0
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for column, out in zip(columns, shuffled):
            np.take(column, order, axis=0, out=out)
        _normalize_rows(advantages[:whole].reshape(-1, size))
        _normalize_rows(advantages[whole:].reshape(1, -1))
        for lo in range(0, n, size):
            stats = _loss_and_grads(params, *(c[lo : lo + size] for c in shuffled), cfg, grads)
            if not math.isfinite(stats[0]):
                raise RuntimeError(f"non-finite loss during update: {dict(zip(_STATS, stats))}")
            np.multiply(grad_flat, grad_flat, out=squares)
            norm = math.sqrt(
                sum(float(np.add.reduce(s if s.ndim == 1 else s.ravel())) for s in square_rows)
            )
            if cfg.max_grad_norm > 0 and norm > cfg.max_grad_norm:
                grad_flat *= cfg.max_grad_norm / norm
            adam.step(params.flat, grad_flat)
            sums = [total + value for total, value in zip(sums, stats)]
            count += 1
    return {key: total / count for key, total in zip(_STATS, sums)}


def _normalize_rows(block: np.ndarray) -> None:
    """Standardize each row of the 2-D ``block`` in place, ``(x - mean) /
    (std + 1e-8)``.  A row's axis-1 mean and std equal those of the row
    alone (``adv.mean()``, ``adv.std()``) bit for bit."""
    if block.size:
        mean = block.mean(axis=1, keepdims=True)
        std = block.std(axis=1, keepdims=True)
        block -= mean
        block /= std + 1e-8


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _collect_window(
    params: PolicyParams,
    env,
    buffer: RolloutBuffer,
    obs: np.ndarray,
    episode_return: float,
    cfg: PpoConfig,
    sample_rng: np.random.Generator,
    env_rng: np.random.Generator,
):
    """Fill ``buffer`` with one update window of steps from ``obs``.

    Once per window, before the first step: the clipped log stds and the
    window's normal draws, one ``(n_steps, act_dim)`` block from
    ``sample_rng``, times the stds.  Each step then writes its observation
    into the buffer, runs one batch-1 policy forward, adds its scaled draw
    to the mean into the buffer's ``z``, checks the draw with
    ``math.isfinite`` and steps ``env`` with ``tanh(z)``, resetting it from
    ``env_rng`` when an episode ends.  After the last step: the rewards,
    done flags and action differences go into the buffer in one assignment
    each, and the log probs (:func:`_log_prob_of_z`) and values
    (:func:`_window_values`) of the whole window are computed.  Returns the
    next observation, the return of the episode still running and the
    returns of the episodes finished in the window.
    """
    n = buffer.n_steps
    log_std = _clipped_log_std(params, cfg)
    scaled_noise = np.exp(log_std) * sample_rng.standard_normal(buffer.z.shape)
    means = np.empty_like(buffer.z)
    rewards, dones, action_diffs = [0.0] * n, [False] * n, [0.0] * n
    finished: list[float] = []
    for t in range(n):
        buffer.obs[t] = obs
        means[t] = mean = net_forward(params.policy, obs)[0][0]
        z = np.add(mean, scaled_noise[t], out=buffer.z[t])
        if not all(map(math.isfinite, z.tolist())):
            raise RuntimeError(f"non-finite policy output: mean={mean}, log_std={log_std}")
        obs, rewards[t], dones[t], info = env.step_raw(np.tanh(z))
        action_diffs[t] = info["action_diff"]
        episode_return += rewards[t]
        if dones[t]:
            finished.append(episode_return)
            episode_return = 0.0
            obs = env.reset_random(env_rng)
    buffer.reward[:] = rewards
    buffer.done[:] = dones
    buffer.action_diff[:] = action_diffs
    buffer.logp[:] = _log_prob_of_z(means, log_std, buffer.z)
    buffer.value[:] = _window_values(params, buffer.obs)
    return obs, episode_return, finished


def train(env, cfg: PpoConfig, seed: int):
    """On-policy training against a masked environment.

    ``env`` exposes ``reset_random``, ``step_raw`` and the installed
    action box ``mask`` (see :class:`saferl.evasion.EvasionEnv`).  The
    policy does not change inside an update window, so
    :func:`_collect_window` draws the window's noise and fixes its log stds
    up front and computes its log probs and values after its last step;
    each equals the per-step sample, log prob and batch-1 value forward of
    its row.  The bootstrap value of the observation after the
    window is :func:`_window_values` of that one row.  :func:`ppo_update`
    then runs the epochs of minibatch steps.  Returns the trained parameters
    and one log row per update: global step, mean/std of episode returns
    finished in the window, mean normalized action difference, and loss
    statistics.
    """
    ss = np.random.SeedSequence(seed)
    init_ss, env_ss, sample_ss, shuffle_ss = ss.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    env_rng = np.random.default_rng(env_ss)
    sample_rng = np.random.default_rng(sample_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    obs = env.reset_random(env_rng)
    obs_dim = obs.shape[0]
    act_dim = env.mask.dim
    params = init_policy(obs_dim, act_dim, cfg, init_rng)
    adam = Adam(params.flat.size, cfg.learning_rate, eps=cfg.adam_eps)
    buffer = RolloutBuffer(cfg.n_steps, obs_dim, act_dim)

    n_updates = max(1, cfg.steps // cfg.n_steps)
    log_rows: list[dict] = []
    episode_return = 0.0
    for update in range(n_updates):
        obs, episode_return, window_returns = _collect_window(
            params, env, buffer, obs, episode_return, cfg, sample_rng, env_rng
        )
        bootstrap = float(_window_values(params, obs[None])[0])
        buffer.finalize(cfg.gamma, cfg.gae_lambda, bootstrap)
        stats = ppo_update(params, buffer, cfg, adam, shuffle_rng)
        row = {
            "step": (update + 1) * cfg.n_steps,
            "mean_reward": float(np.mean(window_returns)) if window_returns else math.nan,
            "std_reward": float(np.std(window_returns)) if window_returns else math.nan,
            "action_diff": float(np.mean(buffer.action_diff)),
            **stats,
        }
        log_rows.append(row)
    return params, log_rows


def evaluate_policy(
    env,
    params: PolicyParams,
    n_episodes: int,
    seed: int,
) -> tuple[float, float, list[float]]:
    """Deterministic evaluation: the squashed mean action over
    ``n_episodes`` episodes, and the mean, std and list of their returns.

    The obstacles are drawn up front, in episode order, from one generator
    seeded by ``seed``.  ``env`` is an :class:`saferl.evasion.EvasionEnv`
    with the action mask installed; its
    :meth:`~saferl.evasion.EvasionEnv.returns` plays the episodes, from
    ``LOCKSTEP_MIN_ROWS`` of them on as one
    :meth:`~saferl.evasion.EvasionSource.rollout_batch` run with one
    stacked policy forward per step (:func:`_row_forward`).  Each return is
    bit-equal to a :meth:`~saferl.evasion.EvasionEnv.step_raw` loop of the
    squashed mean of one batch-1 forward per step.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    obstacles = [sample_obstacle(env.cfg, rng) for _ in range(n_episodes)]
    returns = env.returns(obstacles, lambda obs: np.tanh(_row_forward(params.policy, obs)))
    mean = float(np.mean(returns))
    std = float(np.std(returns))
    return mean, std, returns


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_POLICY_MAGIC = b"SRLP"
_POLICY_VERSION = 1


class PolicyLoadError(RuntimeError):
    """Policy file is missing, truncated, non-finite or structurally inconsistent."""


def _pack_u32(*values: int) -> bytes:
    return struct.pack("<" + "I" * len(values), *values)


def _sidecar_layout(params: PolicyParams) -> dict:
    """The layout fields of a policy's sidecar, which must match its binary."""
    return {
        "format_version": _POLICY_VERSION,
        "obs_dim": params.obs_dim,
        "act_dim": params.act_dim,
        "policy_sizes": list(params.policy.sizes),
        "value_sizes": list(params.value.sizes),
    }


def save_policy(params: PolicyParams, path, meta: dict | None = None) -> Path:
    """Write the flat binary format: magic, version, array count, per-array
    shape headers, then the float64 little-endian payloads in declared order
    (policy weights/biases, log stds, value weights/biases).  A JSON sidecar
    with the same stem records hyperparameters and metadata."""
    path = Path(path)
    arrays = params.param_list()
    blob = bytearray()
    blob += _POLICY_MAGIC
    blob += _pack_u32(_POLICY_VERSION, len(arrays))
    for a in arrays:
        blob += _pack_u32(a.ndim, *a.shape)
    for a in arrays:
        blob += np.ascontiguousarray(a, dtype="<f8").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(bytes(blob))
        # The binary has no checksum: payload pages read back as zeros after
        # a power loss would load as a valid policy, so unlike the JSON
        # artifacts it reaches the disk before it replaces the previous file.
        fh.flush()
        os.fsync(fh.fileno())

    sidecar_path = path.with_suffix(".json")
    write_json(sidecar_path, {**_sidecar_layout(params), **(meta or {})})
    return sidecar_path


def load_policy(path) -> tuple[PolicyParams, dict]:
    """Read a policy file and its sidecar; raises :class:`PolicyLoadError`
    with a reason on any structural problem, including a non-finite parameter
    and a sidecar whose format version, dimensions or layer sizes differ from
    the binary's."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise PolicyLoadError(f"cannot read policy file {path}: {exc}") from exc
    view = memoryview(blob)
    if len(view) < 12 or bytes(view[:4]) != _POLICY_MAGIC:
        raise PolicyLoadError(f"{path} is not a policy file (bad magic)")
    version, n_arrays = struct.unpack("<II", view[4:12])
    if version != _POLICY_VERSION:
        raise PolicyLoadError(f"unsupported policy format version {version}")
    offset = 12
    shapes = []
    try:
        for _ in range(n_arrays):
            (ndim,) = struct.unpack("<I", view[offset : offset + 4])
            offset += 4
            if ndim > 2:
                raise PolicyLoadError(f"implausible array rank {ndim}")
            dims = struct.unpack("<" + "I" * ndim, view[offset : offset + 4 * ndim])
            offset += 4 * ndim
            shapes.append(dims)
    except struct.error as exc:
        raise PolicyLoadError(f"truncated policy header in {path}") from exc
    arrays = []
    for dims in shapes:
        count = math.prod(dims)  # exact: np.prod wraps past int64
        nbytes = 8 * count
        if offset + nbytes > len(view):
            raise PolicyLoadError(f"truncated policy payload in {path}")
        arrays.append(np.frombuffer(view[offset : offset + nbytes], dtype="<f8").reshape(dims))
        offset += nbytes
    if offset != len(view):
        raise PolicyLoadError(f"trailing bytes in policy file {path}")

    if len(arrays) < 3 or (len(arrays) - 1) % 2 != 0:
        raise PolicyLoadError("unexpected array count in policy file")
    n_net = (len(arrays) - 1) // 2
    if n_net % 2 != 0:
        raise PolicyLoadError("policy/value layer split is inconsistent")
    policy, log_std, value = _split(arrays, n_net // 2)
    for net in (policy, value):
        for w, b in zip(net.weights, net.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise PolicyLoadError("inconsistent layer shapes in policy file")
    if log_std.ndim != 1 or log_std.shape[0] != policy.sizes[-1]:
        raise PolicyLoadError("log-std shape does not match the policy head")

    # copies the payload into the parameters' one float64 vector
    params = PolicyParams(policy=policy, log_std=log_std, value=value)
    if not np.isfinite(params.flat).all():
        raise PolicyLoadError(f"non-finite parameters in policy file {path}")
    sidecar_path = path.with_suffix(".json")
    meta: dict = {}
    if sidecar_path.exists():
        try:
            meta = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as exc:
            raise PolicyLoadError(f"corrupt policy sidecar {sidecar_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise PolicyLoadError(f"corrupt policy sidecar {sidecar_path}: not a JSON object")
        for key, want in _sidecar_layout(params).items():
            if key not in meta:
                raise PolicyLoadError(
                    f"policy sidecar {sidecar_path} lacks {key} ({want!r} in the binary {path})"
                )
            if meta[key] != want:
                raise PolicyLoadError(
                    f"policy sidecar {sidecar_path} does not match {path}: "
                    f"{key} is {meta[key]!r} in the sidecar, {want!r} in the binary"
                )
    return params, meta
