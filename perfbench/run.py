"""Benchmark of the saferl pipeline stages.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload verify_safe --seed 1 --seconds 36 --trace 0

It prepares the workload's inputs (timed as ``setup_s``, median of several
set-ups), then repeats the workload's stage calls until ``--seconds`` have
passed, checking every stage's outputs.  Times are calibrated to a fixed
host speed (see ``hostclock.py``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics, with the tracing overhead as the difference of the two
iteration medians.  ``--smoke`` runs one tiny iteration (two when traced).
The last line of standard output is the JSON result; the full record, with
provenance and per-iteration artifact digests, is written under
``perfbench/.runs/records``.

Everything runs in this one process with BLAS pinned to one thread.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = Path("perfbench") / ".runs"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPS = 3

if __name__ == "__main__":
    # Run from the repository root so artifact paths, and the manifests that
    # record them, do not depend on where the checkout lives.
    os.chdir(ROOT)
    if not (ROOT / "src" / "saferl").is_dir():
        sys.exit(f"no saferl sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402


def _parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="seed override passed to every stage")
    parser.add_argument("--seconds", type=float, required=True, help="measurement time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny iteration, for tests")
    parser.add_argument(
        "--record-reference",
        action="store_true",
        help="store this run's artifact digests as the reference for its seed",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "saferl").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _openblas_version() -> str | None:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"].get("version")
    except (KeyError, TypeError, ValueError):
        return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas_version(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setup_times, untraced, match_frac) -> dict:
    return {
        "setup_s": _metric(_median(setup_times), "s"),
        "wall_s": _metric(_median([it["wall_s"] for it in untraced]), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "artifact_match_frac": _metric(match_frac, "fraction"),
    }


def pipeline_metrics(untraced, attempted: int, failed: int) -> dict:
    """The per-workload pipeline figures, from untraced iterations.

    Each is 0 on a workload that has no stage of its kind.
    """
    stages = [s for it in untraced for s in it["stages"]]
    verdicts = [s["cal_s"] for s in stages if s["stage"] in ("verify_safe", "verify_agent")]
    sampling = [s for s in stages if s["samples"]]
    training = [s for s in stages if s["train_steps"]]
    samples_wall = sum(s["cal_s"] for s in sampling)
    train_wall = sum(s["cal_s"] for s in training)
    return {
        "verdict_s": _metric(_median(verdicts), "s"),
        "samples_per_s": _metric(sum(s["samples"] for s in sampling) / samples_wall if samples_wall else 0.0, "1/s"),
        "train_steps_per_s": _metric(
            sum(s["train_steps"] for s in training) / train_wall if train_wall else 0.0, "1/s"
        ),
        "failed_frac": _metric(failed / attempted, "fraction"),
    }


STAGE_SPANS = ("expand", "verify_safe", "train", "verify_agent", "histogram")
MODULES = ("evasion", "stl", "controller", "mlp", "ppo", "verify", "boxes", "pipeline")


def layer_metrics(layers: list[dict], untraced, traced, artifact_bytes: float) -> dict:
    """Per-layer figures from the traced iterations, grouped by module.

    Times are inclusive per call (0 when a layer had no calls); ``*_per_step``
    divide call counts by environment steps (rollout steps plus
    ``step_raw`` calls); ``*.calls`` are wrapped calls per iteration.
    """
    n_it = len(layers)
    calls: dict[str, int] = {}
    ns: dict[str, float] = {}
    for layer in layers:
        for name, agg in layer["per_name"].items():
            calls[name] = calls.get(name, 0) + agg["calls"]
            ns[name] = ns.get(name, 0.0) + agg["ns"]
    steps = sum(layer["rollout_steps"] for layer in layers) + calls.get("evasion.step_raw", 0)
    episodes = calls.get("evasion.reset", 0)
    forwards = sum(c for name, c in calls.items() if name.startswith("mlp.net_forward."))
    samples = [ms for layer in layers for ms in layer["sample_ms"]]
    train_calls = calls.get("ppo.train", 0)
    collect_ns = sum(layer["train_collect_ns"] for layer in layers)

    def per_call(name: str, ns_per_unit: float) -> float:
        return ns[name] / calls[name] / ns_per_unit if calls.get(name) else 0.0

    def per_step(count: int) -> float:
        return count / steps if steps else 0.0

    def module_calls(module: str) -> float:
        return sum(c for name, c in calls.items() if name.startswith(module + ".")) / n_it

    us, ms, s = 1e3, 1e6, 1e9
    m = {
        "evasion.mindistance.calls_per_step": _metric(per_step(calls.get("evasion.mindistance", 0)), "count"),
        "evasion.mindistance.us": _metric(per_call("evasion.mindistance", us), "us"),
        "evasion.unicycle_step.us": _metric(per_call("evasion.unicycle_step", us), "us"),
        "evasion.step_raw.us": _metric(per_call("evasion.step_raw", us), "us"),
        "evasion.rollout.ms": _metric(per_call("evasion.rollout", ms), "ms"),
        "evasion.steps_per_episode": _metric(steps / episodes if episodes else 0.0, "count"),
        "evasion.episode_robustness.ms": _metric(per_call("evasion.episode_robustness", ms), "ms"),
        "stl.satisfies.ms": _metric(per_call("stl.satisfies", ms), "ms"),
        "stl.predicate_evals_per_step": _metric(per_step(calls.get("stl.predicate_eval", 0)), "count"),
        "controller.call.us": _metric(per_call("controller.call", us), "us"),
        "controller.calls_per_step": _metric(per_step(calls.get("controller.call", 0)), "count"),
        "mlp.net_forward.b1.us": _metric(per_call("mlp.net_forward.b1", us), "us"),
        "mlp.net_forward.b64.us": _metric(per_call("mlp.net_forward.b64", us), "us"),
        "mlp.net_forward.calls_per_step": _metric(per_step(forwards), "count"),
        "mlp.net_backward.b64.us": _metric(per_call("mlp.net_backward.b64", us), "us"),
        "mlp.adam_step.us": _metric(per_call("mlp.adam_step", us), "us"),
        "ppo.ppo_update.s": _metric(per_call("ppo.ppo_update", s), "s"),
        "ppo.train.self_s": _metric(collect_ns / train_calls / s if train_calls else 0.0, "s"),
        "ppo.evaluate_policy.s": _metric(per_call("ppo.evaluate_policy", s), "s"),
        "verify.probv.s": _metric(per_call("verify.probv", s), "s"),
        "verify.sample.ms.p50": _metric(float(np.percentile(samples, 50)) if samples else 0.0, "ms"),
        "verify.sample.ms.p98": _metric(float(np.percentile(samples, 98)) if samples else 0.0, "ms"),
        "boxes.sample.us": _metric(per_call("boxes.sample", us), "us"),
        "boxes.sample.calls_per_step": _metric(per_step(calls.get("boxes.sample", 0)), "count"),
        "pipeline.calibrate_reward_scale.s": _metric(per_call("pipeline.calibrate_reward_scale", s), "s"),
    }
    for stage in STAGE_SPANS:
        m[f"pipeline.{stage}.s"] = _metric(per_call(f"pipeline.{stage}", s), "s")
    m["pipeline.artifact_bytes"] = _metric(artifact_bytes, "bytes")
    for module in MODULES:
        m[f"{module}.calls"] = _metric(module_calls(module), "count")
    plain = _median([it["wall_s"] for it in untraced])
    overhead = _median([it["wall_s"] for it in traced]) - plain
    m["trace.overhead_s"] = _metric(overhead, "s")
    m["trace.overhead_frac"] = _metric(overhead / plain if plain else 0.0, "fraction")
    return m


# ---------------------------------------------------------------------------
# Artifact references
# ---------------------------------------------------------------------------


def _load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def artifact_match(iterations, recorded: dict | None) -> tuple[float, dict]:
    """Share of written artifacts whose sha256 equals the reference.

    The reference is the one recorded for this workload and seed in
    ``reference.json`` when there is one, otherwise the first iteration.
    """
    reference = recorded if recorded else iterations[0]["artifacts"]
    total = matched = 0
    for it in iterations:
        for key, digest in reference.items():
            total += 1
            matched += it["artifacts"].get(key) == digest
    return (matched / total if total else 0.0), reference


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def run(args) -> tuple[dict, dict]:
    from hostclock import HostClock

    clock = HostClock()
    clock.start()
    try:
        return _run(args, clock)
    finally:
        clock.stop()


def _run(args, clock) -> tuple[dict, dict]:
    import workloads as W
    from tracing import Tracer

    sizes = W.SMOKE if args.smoke else W.FULL
    base = RUNS_DIR / (args.workload + ("-smoke" if args.smoke else ""))

    setup_raw, setup_times = [], []
    for _ in range(SETUP_REPS):
        W.fresh_dir(base)
        t0 = time.perf_counter()
        prep = W.prepare(args.workload, base, args.seed, sizes)
        t1 = time.perf_counter()
        setup_raw.append(t1 - t0)
        setup_times.append(clock.calibrated(t0, t1))

    tracer = Tracer() if args.trace else None
    min_iterations = 2 if tracer else 1
    plan = W.stage_plan(args.workload, prep, args.seed)
    iterations: list[dict] = []
    layers: list[dict] = []
    first_digests: dict | None = None
    t_start = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        traced = tracer is not None and len(iterations) % 2 == 1
        timed = [(W.run_stage(stage, call, tracer if traced else None), check) for stage, call, check in plan]
        results = []
        for (result, output), check in timed:
            result.cal_s = clock.calibrated(result.start, result.end)
            if not result.error:
                W.check_stage(result, check, output)
            results.append(result)
        digests = {k: v for r in results for k, v in r.artifacts.items()}
        if first_digests is None:
            first_digests = digests
        for r in results:
            if r.ok and any(first_digests.get(k) != v for k, v in r.artifacts.items()):
                r.ok, r.error = False, "artifacts differ from the first iteration under the same seed"
        if traced:
            layers.append(tracer.collect())
        # Cyclic garbage left by the stages would otherwise raise the peak
        # resident memory with the number of iterations a run fits in.
        gc.collect()
        iterations.append(
            {
                "traced": traced,
                "wall_s": sum(r.cal_s for r in results),
                "raw_wall_s": sum(r.wall_s for r in results),
                "artifacts": digests,
                "artifact_bytes": sum(r.artifact_bytes for r in results),
                "stages": [vars(r) | {"artifacts": None} for r in results],
            }
        )
        elapsed = time.perf_counter() - t_start
        if len(iterations) >= min_iterations and (args.smoke or elapsed + (time.perf_counter() - t_iter) > args.seconds):
            break

    stages = [s for it in iterations for s in it["stages"]]
    attempted = len(stages)
    failed = sum(not s["ok"] for s in stages)
    untraced = [it for it in iterations if not it["traced"]]
    recorded = None if args.smoke else _load_reference().get(args.workload, {}).get(str(args.seed))
    match_frac, reference = artifact_match(iterations, recorded)

    if tracer:
        traced_its = [it for it in iterations if it["traced"]]
        metrics = layer_metrics(layers, untraced, traced_its, _median([it["artifact_bytes"] for it in iterations]))
        metrics.update(pipeline_metrics(untraced, attempted, failed))
        metrics["host.slowness"] = _metric(clock.slowness(), "ratio")
    else:
        metrics = end_to_end_metrics(setup_times, untraced, match_frac)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "provenance": provenance(args),
        "setup_s": setup_times,
        "setup_raw_s": setup_raw,
        "host_slowness": clock.slowness(),
        "host_kernel_samples": len(clock.kernel_s),
        "iterations": iterations,
        "reference": "recorded" if recorded else "first_iteration",
        "reference_digests": reference,
        "absent_spans": layers[0]["absent"] if layers else [],
        "layers": [layer["per_name"] for layer in layers],
        "result": result,
    }
    return result, record


def main(argv=None) -> int:
    args = _parse_args(argv)
    result, record = run(args)
    records = RUNS_DIR / "records"
    records.mkdir(parents=True, exist_ok=True)
    suffix = "_smoke" if args.smoke else ""
    path = records / f"{args.workload}_seed{args.seed}_trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.record_reference and not args.smoke and result["correct"]:
        reference = _load_reference()
        reference.setdefault(args.workload, {})[str(args.seed)] = record["iterations"][0]["artifacts"]
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for i, iteration in enumerate(record["iterations"]):
        for stage in iteration["stages"]:
            if stage["error"]:
                print(f"iteration {i} stage {stage['stage']} failed: {stage['error']}")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
