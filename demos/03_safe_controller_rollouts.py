"""Closed-loop evasion episodes under the reference safe controller.

Rolls a handful of episodes with randomly placed obstacles, scores each one
with the episode robustness measure, and exports one trace to CSV.
"""

import numpy as np

from saferl.controller import ControllerConfig, SafeController
from saferl.evasion import EvasionSource, TaskConfig, episode_robustness, safety_predicates

task = TaskConfig()
ctrl = ControllerConfig()
source = EvasionSource(task, lambda: SafeController(task, ctrl))
monitor = safety_predicates(task)

print(f"robot: {task.start} -> {task.goal}, cruise {ctrl.cruise_speed} m/s, "
      f"step {task.dt} s, horizon {task.k_max} steps")

rng = np.random.default_rng(2)
for i in range(8):
    initial = source.sample_initial(rng)
    trace = source.rollout(initial)
    rho = episode_robustness(trace, task)
    # a conflict step is one where the contract's trigger `infront & near` holds
    states = trace.signal().states
    trigger = (monitor.evaluate("infront", states) >= 0) & (monitor.evaluate("near", states) >= 0)
    conflict_steps = int(np.sum(trigger))
    print(
        f"episode {i}: obstacle at ({initial[0]:+.2f}, {initial[1]:+.2f}) "
        f"heading {initial[2]:+.2f} rad at {initial[3]:.2f} m/s | "
        f"{trace.n_steps:3d} steps, {conflict_steps:3d} conflict steps, "
        f"ends by {trace.termination:7s}, robustness {rho:+.3f}"
    )

# a positive score means the episode satisfied the safety contract; the
# magnitude rewards goal progress and unused time budget

trace.to_csv("demo_trace.csv", task)
print("last trace exported to demo_trace.csv (one row per step)")
