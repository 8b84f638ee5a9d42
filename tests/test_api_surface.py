"""The option surface of the library: for every function and class named in
a module's ``__all__``, and every public method of such a class, the
parameters that have defaults.  A new option, or one deleted, fails this
test and shows in review as a one-line diff of ``OPTIONS``; the failure
prints the recomputed dict to paste in."""

import importlib
import inspect
import pkgutil

import saferl

OPTIONS = {
    "atomic.atomic_open": ("mode",),
    "boxes.IntervalBox.contains": ("tol",),
    "boxes.IntervalBox.sample": ("n",),
    "controller.ControllerConfig": (
        "heading_gain",
        "cruise_speed",
        "evade_turn_rate",
        "exit_margin",
        "track_turn_cap",
        "target_lookahead",
    ),
    "controller.SafeController": ("cfg",),
    "evasion.EvasionSource": ("agent",),
    "evasion.EvasionSource.rollout": ("perturb",),
    "evasion.EvasionSource.rollout_batch": ("perturbations", "agent_rows",),
    "evasion.TaskConfig": (
        "dt",
        "k_max",
        "danger_radius",
        "lookahead",
        "start",
        "goal",
        "goal_radius",
        "arena",
        "v_min",
        "v_max",
        "omega_max",
        "evade_rate_bound",
        "evade_angle_tol",
        "evade_rate_tol",
        "r_diff",
        "obstacle_region",
        "obstacle_speed_range",
    ),
    "evasion.episode_robustness": ("table",),
    "mlp.Adam": ("eps",),
    "mlp.net_backward": ("out",),
    "mlp.net_init": ("out_gain",),
    "pipeline.ExpandConfig": ("e_init", "delta_f", "max_iters", "seed",),
    "pipeline.HistogramBenchmark": ("agent_mean", "agent_std", "safe_mean", "safe_std",),
    "pipeline.HistogramConfig": ("n_samples", "seed", "benchmark",),
    "pipeline.PipelineConfig": (
        "task",
        "controller",
        "verification",
        "expansion",
        "training",
        "histogram",
        "output_dir",
    ),
    "pipeline.TrainingConfig": (
        "ppo",
        "seed",
        "auto_scale_reward",
        "reward_target",
        "pilot_episodes",
    ),
    "pipeline.VerifyConfig": ("n_samples", "epsilon", "seed", "jobs",),
    "pipeline.config_from_dict": ("cls",),
    "pipeline.run_expand": ("out_dir", "seed",),
    "pipeline.run_histogram": ("policy_path", "out_dir", "n", "seed",),
    "pipeline.run_train": ("out_dir", "seed", "steps",),
    "pipeline.run_verify_agent": ("out_dir", "seed",),
    "pipeline.run_verify_safe": ("out_dir", "seed",),
    "ppo.PpoConfig": (
        "hidden",
        "steps",
        "n_steps",
        "minibatch_size",
        "epochs",
        "learning_rate",
        "gamma",
        "gae_lambda",
        "clip_range",
        "vf_coef",
        "ent_coef",
        "max_grad_norm",
        "adam_eps",
        "log_std_init",
        "log_std_min",
        "log_std_max",
        "eval_episodes",
    ),
    "ppo.save_policy": ("meta",),
    "verify.RolloutSource.rollout": ("perturb",),
    "verify.find_expansion_set": ("max_iters",),
}


def _defaults(obj) -> tuple[str, ...]:
    try:
        parameters = inspect.signature(obj).parameters.values()
    except ValueError:  # an exception class without its own __init__
        return ()
    return tuple(p.name for p in parameters if p.default is not inspect.Parameter.empty)


def option_surface() -> dict:
    """Keyed by the defining module and qualified name, so a name that the
    package also exports is recorded once."""
    modules = [saferl]
    for info in pkgutil.iter_modules(saferl.__path__):
        modules.append(importlib.import_module(f"saferl.{info.name}"))
    surface = {}
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            members = [obj]
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class and static methods
                    if inspect.isfunction(member) and (attr == "__call__" or attr[0] != "_"):
                        members.append(member)
            for member in members:
                defaults = _defaults(member)
                if defaults:
                    module_name = member.__module__.removeprefix("saferl.")
                    surface[f"{module_name}.{member.__qualname__}"] = defaults
    return surface


def as_source(surface: dict) -> str:
    """``surface`` written as the ``OPTIONS`` literal above."""
    lines = ["OPTIONS = {"]
    for key, names in sorted(surface.items()):
        quoted = [f'"{name}"' for name in names]
        line = f'    "{key}": ({", ".join(quoted)},),'
        if len(line) <= 100:
            lines.append(line)
        else:
            lines += [f'    "{key}": (', *(f"        {q}," for q in quoted), "    ),"]
    return "\n".join([*lines, "}"])


def test_the_option_surface_is_the_recorded_one():
    got = option_surface()
    assert got == OPTIONS, "recomputed option surface:\n" + as_source(got)
