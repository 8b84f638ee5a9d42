"""Learning inside the verified perturbation box.

The policy emits raw actions in [-1, 1]^2 that are mapped affinely into the
box around the safe controller output, so every executed control stays in
the verified set.  The reward is the one-step goal-progress advantage over
the safe controller, so anything above zero beats the baseline.

A short run for demonstration; the acceptance-scale budget is 100k steps.
"""

import numpy as np

from saferl.boxes import IntervalBox
from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import EvasionEnv, TaskConfig
from saferl.ppo import PpoConfig, evaluate_policy, init_policy, train

task = TaskConfig()
box = IntervalBox([-0.0022, -0.01], [0.0022, 0.01])  # a typical verified box
env = EvasionEnv(task, lambda: SafeController(task, ControllerConfig()), mask=box)

cfg = PpoConfig(steps=20_000)
print(f"training for {cfg.steps} steps (updates of {cfg.n_steps} steps)...")
params, log = train(env, cfg, seed=3)
for row in log:
    print(
        f"  step {row['step']:6d}: mean episode reward {row['mean_reward']:+.3f}, "
        f"action difference {row['action_diff']:.3f}, "
        f"approx KL {row['approx_kl']:.4f}"
    )

mean, std, _ = evaluate_policy(env, params, 20, seed=99)
print(f"trained policy, deterministic eval over 20 episodes: {mean:+.3f} +- {std:.3f}")

untrained = init_policy(7, 2, cfg, np.random.default_rng(0))
mean0, std0, _ = evaluate_policy(env, untrained, 20, seed=99)
print(f"untrained policy on the same episodes:              {mean0:+.3f} +- {std0:.3f}")
print("positive reward = outperforming the safe controller at reaching the goal")
