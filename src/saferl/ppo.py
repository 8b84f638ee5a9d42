"""Clipped-surrogate policy optimization with a squashed Gaussian policy.

The policy and value networks are small dense nets evaluated and
differentiated by hand (:mod:`saferl.mlp`); no autodiff framework is
involved.  Actions are parameterized in [-1, 1]^m: the network mean is
squashed by tanh, and the environment maps the raw action affinely into the
interval box around the safe controller output (:func:`mask_action`), so
every executed control stays inside that box by construction.

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
from typing import Callable

import numpy as np

from .atomic import atomic_open, write_json
from .boxes import IntervalBox
from .evasion import _observe_rows, observe, require_zero_offset
from .mlp import (
    Adam,
    DenseNet,
    clip_by_global_norm,
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
    "policy_sample",
    "policy_mean",
    "value_estimate",
    "gae_advantages",
    "ppo_loss",
    "ppo_loss_and_grads",
    "ppo_update",
    "train",
    "evaluate_policy",
    "AgentController",
    "agent_controller_factory",
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
        for name in ("steps", "n_steps", "minibatch_size", "epochs"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"PpoConfig.{name} must be at least 1, not {value!r}")


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
        n_policy = len(self.policy.weights)
        self.policy = DenseNet(views[0 : 2 * n_policy : 2], views[1 : 2 * n_policy : 2])
        self.log_std = views[2 * n_policy]
        self.value = DenseNet(views[2 * n_policy + 1 :: 2], views[2 * n_policy + 2 :: 2])

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
        return PolicyParams(self.policy.copy(), self.log_std.copy(), self.value.copy())


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


def _float_mask(box: IntervalBox) -> Callable:
    """:func:`mask_action` for one box on Python floats: the box's bounds and
    widths are read once, and each axis repeats mask_action's IEEE
    operations in its order, ``(u + lower) + 0.5 * (clip(raw) + 1.0) * width``."""
    lower, widths = box.lower.tolist(), box.widths.tolist()

    def mapped(raw, safe_u) -> tuple[float, ...]:
        return tuple(
            (u + lo) + 0.5 * (min(max(r, -1.0), 1.0) + 1.0) * w
            for u, lo, r, w in zip(safe_u, lower, raw, widths)
        )

    return mapped


# ---------------------------------------------------------------------------
# Policy evaluation
# ---------------------------------------------------------------------------


def _clipped_log_std(params: PolicyParams, cfg: PpoConfig) -> np.ndarray:
    return params.log_std.clip(cfg.log_std_min, cfg.log_std_max)


def _log_prob_of_z(mean, log_std, z) -> np.ndarray:
    """Log density of tanh(z) under the squashed Gaussian, per batch row."""
    std = np.exp(log_std)
    zn = (z - mean) / std
    gauss = -0.5 * np.sum(zn * zn, axis=-1) - np.sum(log_std) - 0.5 * z.shape[-1] * _LOG_2PI
    correction = np.sum(np.log(1.0 - np.tanh(z) ** 2 + _SQUASH_EPS), axis=-1)
    return gauss - correction


def policy_sample(
    params: PolicyParams, obs, rng: np.random.Generator, cfg: PpoConfig
):
    """Draw one action: returns (raw action in (-1, 1), pre-squash draw, log prob).

    The log prob is :func:`_log_prob_of_z` of one row, with the same
    reductions in the same order.
    """
    mean = net_forward(params.policy, obs)[0][0]
    log_std = _clipped_log_std(params, cfg)
    std = np.exp(log_std)
    z = mean + std * rng.standard_normal(mean.shape)
    if not np.isfinite(z).all():
        raise RuntimeError(f"non-finite policy output: mean={mean}, log_std={log_std}")
    raw = np.tanh(z)
    zn = (z - mean) / std
    gauss = -0.5 * (zn * zn).sum() - log_std.sum() - 0.5 * z.shape[-1] * _LOG_2PI
    correction = np.log(1.0 - raw**2 + _SQUASH_EPS).sum()
    return raw, z, float(gauss - correction)


def policy_mean(params: PolicyParams, obs) -> np.ndarray:
    """Deterministic raw action: squashed network mean."""
    return np.tanh(net_forward(params.policy, obs)[0][0])


def value_estimate(params: PolicyParams, obs) -> float:
    return float(net_forward(params.value, obs)[0][0, 0])


class AgentController:
    """The deterministic extracted policy on top of its own safe controller
    ``safe``: ``(robot, obstacle)`` maps to ``mask_action(policy_mean(obs),
    safe_control)``, computed on floats (see :func:`_float_mask`).

    :meth:`batch` steps many rows at once, with the contract of
    :meth:`saferl.controller.SafeController.batch`.  Over a safe controller
    without ``batch`` the agent has none either, and a lockstep rollout
    calls one instance per row.
    """

    def __init__(self, params: PolicyParams, mask: IntervalBox, task_cfg, safe: Callable):
        self.params = params
        self.mask = mask
        self.task_cfg = task_cfg
        self.safe = safe
        self._mapped = _float_mask(mask)
        if getattr(safe, "batch", None) is None:
            self.batch = None  # rollout_batch then steps one instance per row

    def __call__(self, robot, obstacle) -> tuple[float, ...]:
        u_safe = self.safe(robot, obstacle)
        raw = policy_mean(self.params, observe(robot, obstacle, self.task_cfg))
        return self._mapped(raw.tolist(), u_safe)

    def batch(self, robot, obstacle, evading, headings):
        """:meth:`__call__` for many rows, with the arguments and returns of
        :meth:`saferl.controller.SafeController.batch`; row ``i`` equals a
        controller whose safe controller is in mode ``evading[i]``, called on
        row ``i``'s states, bit for bit.

        The policy forward runs on the stacked ``(rows, 1, 7)`` observations,
        which rounds as one batch-1 forward per row; a plain ``(rows, 7)``
        product does not.  :func:`mask_action` on ``(rows, 2)`` arrays
        repeats :func:`_float_mask`'s operations.
        """
        v, omega, evading = self.safe.batch(robot, obstacle, evading, headings)
        obs = _observe_rows(robot, obstacle, self.task_cfg)
        mean = net_forward(self.params.policy, obs[:, None])[0][:, 0]
        u = mask_action(np.tanh(mean), np.stack((v, omega), axis=1), self.mask)
        return u[:, 0], u[:, 1], evading


def agent_controller_factory(
    params: PolicyParams,
    mask: IntervalBox,
    task_cfg,
    safe_factory: Callable[[], Callable],
) -> Callable[[], AgentController]:
    """The deterministic extracted policy as a controller factory: each call
    returns an :class:`AgentController` around a fresh ``safe_factory()``.
    Raises ``ValueError`` when ``mask`` lacks the zero offset.
    """
    require_zero_offset(mask)
    return lambda: AgentController(params, mask, task_cfg, safe_factory())


# ---------------------------------------------------------------------------
# Rollout storage and advantages
# ---------------------------------------------------------------------------


def gae_advantages(rewards, values, dones, gamma, lam, bootstrap_value):
    """Generalized advantage recursion.

    ``dones[t]`` marks transitions whose action ended the episode, so the
    recursion never leaks value across episode boundaries; a truncated tail
    is bootstrapped with ``bootstrap_value``.  Returns (advantages,
    returns) with ``returns = advantages + values``.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    dones = np.asarray(dones, dtype=float)
    T = rewards.shape[0]
    advantages = np.zeros(T)
    last = 0.0
    for t in range(T - 1, -1, -1):
        nonterminal = 1.0 - dones[t]
        next_value = bootstrap_value if t == T - 1 else values[t + 1]
        delta = rewards[t] + gamma * next_value * nonterminal - values[t]
        last = delta + gamma * lam * nonterminal * last
        advantages[t] = last
    return advantages, advantages + values


class RolloutBuffer:
    """Fixed-size on-policy storage for one update window."""

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
        self.ptr = 0

    def add(self, obs, z, logp, value, reward, done, action_diff):
        i = self.ptr
        if i >= self.n_steps:
            raise RuntimeError("rollout buffer overflow")
        self.obs[i] = obs
        self.z[i] = z
        self.logp[i] = logp
        self.value[i] = value
        self.reward[i] = reward
        self.done[i] = float(done)
        self.action_diff[i] = action_diff
        self.ptr += 1

    @property
    def full(self) -> bool:
        return self.ptr == self.n_steps

    def finalize(self, gamma: float, lam: float, bootstrap_value: float) -> None:
        if not self.full:
            raise RuntimeError("buffer not full")
        self.advantages, self.returns = gae_advantages(
            self.reward, self.value, self.done, gamma, lam, bootstrap_value
        )

    def reset(self) -> None:
        self.ptr = 0


# ---------------------------------------------------------------------------
# Loss and update
# ---------------------------------------------------------------------------


def _loss_forward(params: PolicyParams, batch: dict, cfg: PpoConfig):
    obs = batch["obs"]
    z = batch["z"]
    adv = batch["advantages"]
    ret = batch["returns"]
    logp_old = batch["logp"]
    B = obs.shape[0]

    mean, cache_p = net_forward(params.policy, obs)
    log_std = _clipped_log_std(params, cfg)
    logp = _log_prob_of_z(mean, log_std, z)
    ratio = np.exp(logp - logp_old)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * adv
    surrogate = np.minimum(unclipped, clipped)
    policy_loss = -float(np.mean(surrogate))

    v, cache_v = net_forward(params.value, obs)
    v = v[:, 0]
    value_loss = float(np.mean((v - ret) ** 2))

    entropy = float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))
    total = policy_loss + cfg.vf_coef * value_loss - cfg.ent_coef * entropy
    return {
        "B": B,
        "mean": mean,
        "cache_p": cache_p,
        "log_std": log_std,
        "logp": logp,
        "ratio": ratio,
        "unclipped": unclipped,
        "clipped": clipped,
        "v": v,
        "cache_v": cache_v,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "total": total,
    }


def ppo_loss(params: PolicyParams, batch: dict, cfg: PpoConfig) -> float:
    """Scalar objective; pure function of the parameters for a fixed batch."""
    return _loss_forward(params, batch, cfg)["total"]


def ppo_loss_and_grads(params: PolicyParams, batch: dict, cfg: PpoConfig, out=None):
    """Loss statistics plus exact gradients ordered like ``param_list()``.

    The gradients are views of one flat vector laid out like ``params.flat``:
    ``out`` when given, else a fresh one.
    """
    grads = params.views(np.empty_like(params.flat) if out is None else out)
    n_policy = 2 * len(params.policy.weights)
    fwd = _loss_forward(params, batch, cfg)
    B = fwd["B"]
    z = batch["z"]
    adv = batch["advantages"]
    ret = batch["returns"]
    mean = fwd["mean"]
    log_std = fwd["log_std"]
    ratio = fwd["ratio"]

    # d(-mean(min))/d ratio: unclipped branch passes adv through; the clipped
    # branch only inside the clip window (ties give identical values/grads).
    take_unclipped = fwd["unclipped"] <= fwd["clipped"]
    in_window = (ratio > 1.0 - cfg.clip_range) & (ratio < 1.0 + cfg.clip_range)
    dsurr_dratio = np.where(take_unclipped, adv, np.where(in_window, adv, 0.0))
    dratio = -dsurr_dratio / B
    dlogp = dratio * ratio

    std = np.exp(log_std)
    zn = (z - mean) / std
    dmean = dlogp[:, None] * zn / std
    dls = (dlogp[:, None] * (zn * zn - 1.0)).sum(axis=0)
    dls -= cfg.ent_coef  # entropy bonus, per dimension
    ls_inside = (params.log_std > cfg.log_std_min) & (params.log_std < cfg.log_std_max)
    np.multiply(dls, ls_inside, out=grads[n_policy])

    net_backward(params.policy, fwd["cache_p"], dmean, out=grads[:n_policy])
    dv = (2.0 * cfg.vf_coef / B) * (fwd["v"] - ret)
    net_backward(params.value, fwd["cache_v"], dv[:, None], out=grads[n_policy + 1 :])

    log_ratio = fwd["logp"] - batch["logp"]
    stats = {
        "loss": fwd["total"],
        "policy_loss": fwd["policy_loss"],
        "value_loss": fwd["value_loss"],
        "entropy": fwd["entropy"],
        "approx_kl": float(np.mean(ratio - 1.0 - log_ratio)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range)),
    }
    return stats, grads


def ppo_update(
    params: PolicyParams,
    buffer: RolloutBuffer,
    cfg: PpoConfig,
    adam: Adam,
    shuffle_rng: np.random.Generator,
) -> dict:
    """Run the configured epochs of minibatch steps over a full buffer.

    Advantages are normalized per minibatch.  Raises on a non-finite loss.
    """
    n = buffer.n_steps
    stats_sum: dict[str, float] = {}
    count = 0
    grad_flat = np.empty_like(params.flat)
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        for lo in range(0, n, cfg.minibatch_size):
            idx = order[lo : lo + cfg.minibatch_size]
            adv = buffer.advantages[idx]
            adv = (adv - adv.mean()) / (adv.std() + 1e-8)
            batch = {
                "obs": buffer.obs[idx],
                "z": buffer.z[idx],
                "logp": buffer.logp[idx],
                "advantages": adv,
                "returns": buffer.returns[idx],
            }
            stats, grads = ppo_loss_and_grads(params, batch, cfg, out=grad_flat)
            if not math.isfinite(stats["loss"]):
                raise RuntimeError(f"non-finite loss during update: {stats}")
            clip_by_global_norm(grads, cfg.max_grad_norm)
            adam.step(params.flat, grad_flat)
            for key, val in stats.items():
                stats_sum[key] = stats_sum.get(key, 0.0) + val
            count += 1
    return {key: val / count for key, val in stats_sum.items()}


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def train(env_factory: Callable[[], object], cfg: PpoConfig, seed: int):
    """On-policy training against a masked environment.

    ``env_factory`` must produce an environment exposing ``reset_random``
    and ``step_raw`` (see :class:`saferl.evasion.EvasionEnv`) with the
    action mask installed.  Returns the trained parameters and one log row
    per update: global step, mean/std of episode returns finished in the
    window, mean normalized action difference, and loss statistics.
    """
    ss = np.random.SeedSequence(seed)
    init_ss, env_ss, sample_ss, shuffle_ss = ss.spawn(4)
    init_rng = np.random.default_rng(init_ss)
    env_rng = np.random.default_rng(env_ss)
    sample_rng = np.random.default_rng(sample_ss)
    shuffle_rng = np.random.default_rng(shuffle_ss)

    env = env_factory()
    obs = env.reset_random(env_rng)
    obs_dim = obs.shape[0]
    probe = env.mask
    act_dim = probe.dim if probe is not None else 2
    params = init_policy(obs_dim, act_dim, cfg, init_rng)
    adam = Adam(params.flat.size, cfg.learning_rate, eps=cfg.adam_eps)
    buffer = RolloutBuffer(cfg.n_steps, obs_dim, act_dim)

    n_updates = max(1, cfg.steps // cfg.n_steps)
    log_rows: list[dict] = []
    episode_return = 0.0
    for update in range(n_updates):
        buffer.reset()
        window_returns: list[float] = []
        while not buffer.full:
            raw, z, logp = policy_sample(params, obs, sample_rng, cfg)
            value = value_estimate(params, obs)
            next_obs, step_reward, done, info = env.step_raw(raw)
            buffer.add(obs, z, logp, value, step_reward, done, info["action_diff"])
            episode_return += step_reward
            if done:
                window_returns.append(episode_return)
                episode_return = 0.0
                next_obs = env.reset_random(env_rng)
            obs = next_obs
        bootstrap = value_estimate(params, obs)
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
    env_factory: Callable[[], object],
    params: PolicyParams,
    n_episodes: int,
    seed: int,
) -> tuple[float, float, list[float]]:
    """Deterministic evaluation: run the squashed mean action for
    ``n_episodes`` sampled episodes and report mean/std of returns."""
    env = env_factory()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    returns = []
    for _ in range(n_episodes):
        obs = env.reset_random(rng)
        total = 0.0
        done = False
        while not done:
            raw = policy_mean(params, obs)
            obs, step_reward, done, _ = env.step_raw(raw)
            total += step_reward
        returns.append(total)
    mean = float(np.mean(returns))
    std = float(np.std(returns))
    return mean, std, returns


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_POLICY_MAGIC = b"SRLP"
_POLICY_VERSION = 1


class PolicyLoadError(RuntimeError):
    """Policy file is missing, truncated or structurally inconsistent."""


def _pack_u32(*values: int) -> bytes:
    return struct.pack("<" + "I" * len(values), *values)


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

    sidecar = {
        "format_version": _POLICY_VERSION,
        "obs_dim": params.obs_dim,
        "act_dim": params.act_dim,
        "policy_sizes": list(params.policy.sizes),
        "value_sizes": list(params.value.sizes),
    }
    sidecar.update(meta or {})
    sidecar_path = path.with_suffix(".json")
    write_json(sidecar_path, sidecar)
    return sidecar_path


def load_policy(path) -> tuple[PolicyParams, dict]:
    """Read a policy file and its sidecar; raises :class:`PolicyLoadError`
    with a reason on any structural problem, including a sidecar whose format
    version, dimensions or layer sizes differ from the binary's."""
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
        count = int(np.prod(dims)) if dims else 1
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
    half = n_net // 2
    policy = DenseNet(
        weights=[arrays[2 * i] for i in range(half)],
        biases=[arrays[2 * i + 1] for i in range(half)],
    )
    log_std = arrays[2 * half]
    value = DenseNet(
        weights=[arrays[2 * half + 1 + 2 * i] for i in range(half)],
        biases=[arrays[2 * half + 2 + 2 * i] for i in range(half)],
    )
    for net in (policy, value):
        for w, b in zip(net.weights, net.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise PolicyLoadError("inconsistent layer shapes in policy file")
    if log_std.ndim != 1 or log_std.shape[0] != policy.sizes[-1]:
        raise PolicyLoadError("log-std shape does not match the policy head")

    # copies the payload into the parameters' one float64 vector
    params = PolicyParams(policy=policy, log_std=log_std, value=value)
    sidecar_path = path.with_suffix(".json")
    meta: dict = {}
    if sidecar_path.exists():
        try:
            meta = json.loads(sidecar_path.read_text())
        except json.JSONDecodeError as exc:
            raise PolicyLoadError(f"corrupt policy sidecar {sidecar_path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise PolicyLoadError(f"corrupt policy sidecar {sidecar_path}: not a JSON object")
        binary = {
            "format_version": version,
            "obs_dim": params.obs_dim,
            "act_dim": params.act_dim,
            "policy_sizes": list(policy.sizes),
            "value_sizes": list(value.sizes),
        }
        for key, want in binary.items():
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
