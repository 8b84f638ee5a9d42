"""Time one pipeline stage of two checkouts side by side in one process.

    python tools/inproc_pairs.py PARENT CHANGE --stage S --rounds R

``PARENT`` and ``CHANGE`` are checkouts of this repository.  Each one's
``src/saferl`` is copied into a temporary directory as ``saferl_parent`` and
``saferl_change`` and imported from there (every import inside the package
is relative).  BLAS is pinned to one thread before numpy is imported, as
perfbench pins it.

Each side builds its own inputs once, in its own temporary directory, at
perfbench's ``verify_safe``/``train``/``verify_agent`` sizes: N = 50
verifications, 50-sample histograms, expansion capped at one growth step,
an 8192-step training budget.  Stage ``S`` is then called with seed 1:

- ``verify_safe``: ``run_verify_safe`` on the box its own ``run_expand``
  persisted during set-up;
- ``expand``: ``run_expand``;
- ``histogram``: ``run_histogram`` without a policy (the safe and perturbed
  runs) on the box persisted during set-up;
- ``train``: ``run_train`` from a box verified during set-up at N = 10;
- ``verify_agent``: ``run_verify_agent`` on a policy trained for 512 steps
  during set-up;
- ``verify_safe_workload``: ``run_expand``, then ``run_verify_safe``, then
  ``run_histogram`` without a policy, as one iteration of perfbench's
  ``verify_safe`` workload runs them;
- ``verify_agent_workload``: ``run_verify_agent``, then ``run_histogram``
  with that policy, as one iteration of perfbench's ``verify_agent``
  workload runs them.

A round makes four calls per side, the two sides taking turns call by call;
which side goes first alternates from round to round.  A call is timed with
``perf_counter`` and preceded by ``gc.collect()``.  The round's ratio is the
change's fastest call over the parent's.  The tool prints each round, then
the median and quartiles of the ratios and the rounds the change wins
(ratio below 1), and a last JSON line with the same summary.

Limits:

- One process cannot tell the two sides' peak RSS apart; ``peak_rss_mb``
  stays with perfbench.
- Module-level caches (``stl._core``, the monitor table) are per package
  copy, so each side warms its own.
- Both sides share the host's drift within a round, which is the point;
  the ratio still carries whatever the two copies do to each other's
  caches and allocator.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

# before numpy is imported, which happens when the first side is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

STAGES = (
    "verify_safe",
    "expand",
    "histogram",
    "train",
    "verify_agent",
    "verify_safe_workload",
    "verify_agent_workload",
)
SIDES = ("parent", "change")
CALLS = 4  # per side per round
SEED = 1


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``,
    inclusive method); one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(rounds) -> dict:
    """The summary of ``rounds``, a list of ``(parent_times, change_times)``
    pairs of call times in seconds: each round's ratio of the change's
    minimum to the parent's, the ratios' quartiles, and the rounds the
    change wins (ratio below 1; a tie counts for neither side)."""
    ratios = [min(change) / min(parent) for parent, change in rounds]
    return {
        "rounds": len(rounds),
        "ratios": ratios,
        "ratio_quartiles": quartiles(ratios),
        "change_wins": sum(r < 1.0 for r in ratios),
        "parent_wins": sum(r > 1.0 for r in ratios),
    }


def _import_side(checkout: Path, side: str, root: Path):
    """``checkout``'s ``saferl`` package imported as ``saferl_<side>``."""
    shutil.copytree(checkout / "src" / "saferl", root / f"saferl_{side}")
    return importlib.import_module(f"saferl_{side}.pipeline")


def _config(pipeline, small: bool):
    """perfbench's timed (or, with ``small``, set-up) configuration."""
    cfg = pipeline.default_config()
    n, train_steps, n_steps, epochs, episodes, pilots = (
        (10, 512, 256, 2, 2, 2) if small else (50, 8192, 2048, 10, 50, 20)
    )
    ppo = replace(
        cfg.training.ppo,
        steps=train_steps,
        n_steps=n_steps,
        epochs=epochs,
        minibatch_size=64,
        eval_episodes=episodes,
    )
    return replace(
        cfg,
        verification=replace(cfg.verification, n_samples=n),
        expansion=replace(cfg.expansion, max_iters=1),
        histogram=replace(cfg.histogram, n_samples=n),
        training=replace(cfg.training, ppo=ppo, pilot_episodes=pilots),
    )


def _stage_call(pipeline, stage: str, work: Path, seed: int):
    """Build ``stage``'s inputs under ``work`` and return the timed call."""
    cfg, small = _config(pipeline, False), _config(pipeline, True)
    out = work / "out"
    out.mkdir(parents=True)
    if stage in ("verify_safe", "histogram"):
        pipeline.run_expand(cfg, out, seed=seed)
    if stage == "verify_safe":
        return lambda: pipeline.run_verify_safe(cfg, out, seed=seed)
    if stage == "expand":
        return lambda: pipeline.run_expand(cfg, out, seed=seed)
    if stage == "histogram":
        return lambda: pipeline.run_histogram(cfg, None, out, seed=seed)
    if stage == "train":
        pipeline.run_expand(small, out, seed=seed)
        return lambda: pipeline.run_train(cfg, out, seed=seed)
    if stage == "verify_safe_workload":
        return lambda: (
            pipeline.run_expand(cfg, out, seed=seed),
            pipeline.run_verify_safe(cfg, out, seed=seed),
            pipeline.run_histogram(cfg, None, out, seed=seed),
        )
    inputs = work / "inputs"
    pipeline.run_expand(small, inputs, seed=seed)
    policy = pipeline.run_train(small, inputs, seed=seed)[1]["policy"]
    if stage == "verify_agent_workload":
        return lambda: (
            pipeline.run_verify_agent(cfg, policy, out, seed=seed),
            pipeline.run_histogram(cfg, policy, out, seed=seed),
        )
    return lambda: pipeline.run_verify_agent(cfg, policy, out, seed=seed)


def _timed(call) -> float:
    gc.collect()
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--stage", required=True, choices=STAGES)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        sys.path.insert(0, str(root))
        calls = {}
        for side in SIDES:
            pipeline = _import_side(getattr(args, side).resolve(), side, root)
            calls[side] = _stage_call(pipeline, args.stage, root / side, SEED)
            calls[side]()  # warm the side's caches before timing

        rounds = []
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            times = {side: [] for side in SIDES}
            for _ in range(CALLS):
                for side in order:
                    times[side].append(_timed(calls[side]))
            rounds.append((times["parent"], times["change"]))
            print(
                f"round {r} first {order[0]:6s} parent min {min(times['parent']):.4f} s "
                f"change min {min(times['change']):.4f} s "
                f"ratio {min(times['change']) / min(times['parent']):.4f}",
                flush=True,
            )

    summary = summarize(rounds)
    q1, median, q3 = summary["ratio_quartiles"]
    print(
        f"\n{args.stage}: {summary['rounds']} rounds of {CALLS} calls per side; "
        f"change/parent ratio of minima median {median:.4f} [{q1:.4f}, {q3:.4f}]; "
        f"change wins {summary['change_wins']}, parent wins {summary['parent_wins']}"
    )
    print(json.dumps({"stage": args.stage, "calls": CALLS, "seed": SEED, **summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
