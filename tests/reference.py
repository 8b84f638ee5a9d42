"""Plain reference forms of library arithmetic that only the tests use.

The library computes these on Python floats, row arrays or whole update
windows; the versions here are the direct NumPy expressions, one row or one
minibatch at a time, and a float episode engine (:func:`rollout_ref`) that
the tests check those paths against.
"""

import math

import numpy as np

from saferl.evasion import (
    COL_THO,
    COL_THR,
    EpisodeTrace,
    ObstacleState,
    RobotState,
    _complete_rows,
    _cos_sin,
    path_heading,
    unicycle_step,
)
from saferl.mlp import net_forward
from saferl.ppo import _LOG_2PI, _SQUASH_EPS, _clipped_log_std


def heading_vector(theta: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta)])


def closest_point_on_segment(point, seg_start, seg_end) -> np.ndarray:
    p = np.asarray(point, dtype=float)
    a = np.asarray(seg_start, dtype=float)
    b = np.asarray(seg_end, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return a.copy()
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return a + t * ab


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])


def unflatten_arrays(flat: np.ndarray, templates: list[np.ndarray]) -> list[np.ndarray]:
    out = []
    offset = 0
    for t in templates:
        size = int(np.prod(t.shape)) if t.shape else 1
        out.append(np.asarray(flat[offset : offset + size]).reshape(t.shape))
        offset += size
    if offset != flat.size:
        raise ValueError("flat vector size does not match templates")
    return out


def evade(theta_dot: float, dtheta: float, sign: int, cfg) -> bool:
    """Admissible avoidance command: either actively turning in the required
    direction within the rate bound, or holding near-zero turn rate once the
    perpendicular orientation has been reached (within tolerance)."""
    s = 0 if theta_dot == 0 else (1 if theta_dot > 0 else -1)
    turning = abs(theta_dot) <= cfg.evade_rate_bound and s == sign
    holding = (dtheta >= 0.0 or abs(dtheta) <= cfg.evade_angle_tol) and abs(
        theta_dot
    ) <= cfg.evade_rate_tol
    return turning or holding


def reward(prev_robot, action, safe_action, cfg) -> float:
    """Scaled one-step advantage of ``action`` over the safe command: the
    difference of next-step distances to the goal, counterfactual safe step
    minus actual step, times ``r_diff``."""
    goal = cfg.goal
    actual = unicycle_step(prev_robot, action, cfg.dt)
    ref = unicycle_step(prev_robot, safe_action, cfg.dt)
    d_actual = math.hypot(actual.x - goal[0], actual.y - goal[1])
    d_ref = math.hypot(ref.x - goal[0], ref.y - goal[1])
    return cfg.r_diff * (d_ref - d_actual)


def rollout_ref(source, initial, perturb=None) -> EpisodeTrace:
    """``source.rollout(initial, perturb)`` one step at a time on floats.

    The controller is called on one robot and obstacle state per step, its
    output clamped to the actuator limits, ``perturb()`` (once per step)
    added and the sum clamped again; the robot and the obstacle move by
    :func:`unicycle_step`, and the episode ends within ``goal_radius`` of the
    goal or at ``k_max`` steps.  The encounter columns are filled from the
    finished rows, as the lockstep engine fills them.
    """
    cfg = source.cfg
    controller = source.controller_factory()
    theta_path = path_heading(cfg.start, cfg.goal)
    robot = RobotState(cfg.start[0], cfg.start[1], theta_path, 0.0)
    obstacle = ObstacleState(*(float(v) for v in initial))

    def clamp(v, w):
        return (
            min(max(float(v), cfg.v_min), cfg.v_max),
            min(max(float(w), -cfg.omega_max), cfg.omega_max),
        )

    rows, termination = [], "horizon"
    while len(rows) < cfg.k_max:
        control = controller(robot, obstacle)
        u_safe = applied = clamp(control[0], control[1])
        if perturb is not None:
            xi = perturb()
            applied = clamp(u_safe[0] + float(xi[0]), u_safe[1] + float(xi[1]))
        nan = math.nan
        rows.append((*vars(robot).values(), *vars(obstacle).values(), *applied, nan, nan, *u_safe, nan))
        robot = unicycle_step(robot, applied, cfg.dt)
        obstacle = unicycle_step(obstacle, (obstacle.v, 0.0), cfg.dt)
        if math.hypot(robot.x - cfg.goal[0], robot.y - cfg.goal[1]) <= cfg.goal_radius:
            termination = "goal"
            break
    rows = np.array(rows)
    _complete_rows(rows, _cos_sin(rows[:, COL_THR : COL_THO + 1 : 4]), theta_path)
    return EpisodeTrace(rows, robot, obstacle, cfg.dt, termination, cfg.start, cfg.goal)


def contains_box(outer, inner, tol: float = 0.0) -> bool:
    """Whether the interval box ``outer`` contains ``inner`` up to ``tol``."""
    return bool(
        np.all(inner.lower >= outer.lower - tol) and np.all(inner.upper <= outer.upper + tol)
    )


# ---------------------------------------------------------------------------
# PPO: the per-step sample and the per-minibatch update that ``ppo.train``
# and ``ppo.ppo_update`` replace with per-window and per-epoch arrays
# ---------------------------------------------------------------------------


def gae_advantages_ref(rewards, values, dones, gamma, lam, bootstrap_value):
    """The advantage recursion on numpy float64 scalars, indexing the arrays
    at each step."""
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


def log_prob_of_z_ref(mean, log_std, z):
    std = np.exp(log_std)
    zn = (z - mean) / std
    gauss = -0.5 * np.sum(zn * zn, axis=-1) - np.sum(log_std) - 0.5 * z.shape[-1] * _LOG_2PI
    correction = np.sum(np.log(1.0 - np.tanh(z) ** 2 + _SQUASH_EPS), axis=-1)
    return gauss - correction


def policy_sample(params, obs, rng: np.random.Generator, cfg):
    """Draw one action: returns (raw action in (-1, 1), pre-squash draw, log prob).

    The log prob is :func:`log_prob_of_z_ref` of one row, with the same
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


def clip_by_global_norm(grads: list[np.ndarray], max_norm: float) -> float:
    """Scale grads in place so their joint 2-norm is at most max_norm.

    Each array's sum of squares runs in row-major order, whatever its memory
    order, so the norm does not depend on the layout.
    """
    total = float(np.sqrt(sum(float((g * g).ravel().sum()) for g in grads)))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


def net_backward_ref(net, cache, dout, out):
    """Backprop through ``net`` into the arrays ``out``, leaving ``cache`` as it is."""
    dh = np.atleast_2d(np.asarray(dout, dtype=float))
    n_layers = len(net.weights)
    for i in range(n_layers - 1, -1, -1):
        dz = dh if i == n_layers - 1 else dh * (1.0 - cache[i + 1] ** 2)
        np.matmul(cache[i].T, dz, out=out[2 * i])
        dz.sum(axis=0, out=out[2 * i + 1])
        dh = dz @ net.weights[i].T


def ppo_loss_and_grads_ref(params, batch: dict, cfg, grads) -> dict:
    """Loss statistics of one minibatch dict; its gradients go into ``grads``."""
    obs, z, adv, ret = batch["obs"], batch["z"], batch["advantages"], batch["returns"]
    B = obs.shape[0]
    n_policy = 2 * len(params.policy.weights)
    mean, cache_p = net_forward(params.policy, obs)
    log_std = _clipped_log_std(params, cfg)
    logp = log_prob_of_z_ref(mean, log_std, z)
    ratio = np.exp(logp - batch["logp"])
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - cfg.clip_range, 1.0 + cfg.clip_range) * adv
    policy_loss = -float(np.mean(np.minimum(unclipped, clipped)))
    v, cache_v = net_forward(params.value, obs)
    v = v[:, 0]
    value_loss = float(np.mean((v - ret) ** 2))
    entropy = float(np.sum(log_std + 0.5 * (1.0 + _LOG_2PI)))
    total = policy_loss + cfg.vf_coef * value_loss - cfg.ent_coef * entropy

    take_unclipped = unclipped <= clipped
    in_window = (ratio > 1.0 - cfg.clip_range) & (ratio < 1.0 + cfg.clip_range)
    dsurr_dratio = np.where(take_unclipped, adv, np.where(in_window, adv, 0.0))
    dlogp = (-dsurr_dratio / B) * ratio
    std = np.exp(log_std)
    zn = (z - mean) / std
    dmean = dlogp[:, None] * zn / std
    dls = (dlogp[:, None] * (zn * zn - 1.0)).sum(axis=0)
    dls -= cfg.ent_coef
    ls_inside = (params.log_std > cfg.log_std_min) & (params.log_std < cfg.log_std_max)
    np.multiply(dls, ls_inside, out=grads[n_policy])
    net_backward_ref(params.policy, cache_p, dmean, grads[:n_policy])
    dv = (2.0 * cfg.vf_coef / B) * (v - ret)
    net_backward_ref(params.value, cache_v, dv[:, None], grads[n_policy + 1 :])

    log_ratio = logp - batch["logp"]
    return {
        "loss": total,
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
        "approx_kl": float(np.mean(ratio - 1.0 - log_ratio)),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > cfg.clip_range)),
    }


def ppo_update_ref(params, buffer, cfg, adam, shuffle_rng) -> dict:
    """The epochs of minibatch steps with one fancy-index gather per
    minibatch, a per-array norm clip and fresh gradient views per step."""
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
            grads = params.views(grad_flat)
            stats = ppo_loss_and_grads_ref(params, batch, cfg, grads)
            if not math.isfinite(stats["loss"]):
                raise RuntimeError(f"non-finite loss during update: {stats}")
            clip_by_global_norm(grads, cfg.max_grad_norm)
            adam.step(params.flat, grad_flat)
            for key, val in stats.items():
                stats_sum[key] = stats_sum.get(key, 0.0) + val
            count += 1
    return {key: val / count for key, val in stats_sum.items()}
