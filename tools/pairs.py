"""Run a checkout and its parent through perfbench in alternating pairs and
summarise the end-to-end metrics.

    python tools/pairs.py PARENT CHANGE --workload W --pairs N --seeds A-B

``PARENT`` and ``CHANGE`` are checkouts of this repository.  Pair ``p``
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
each, parent first in even pairs and change first in odd ones, with ``S``
the ``p``-th seed of ``A``..``B`` (cycling when there are fewer seeds than
pairs) and ``T`` the ``run_seconds`` of ``BENCHMARK.json`` unless
``--seconds`` is given.  From each run it reads the JSON result line and the
run record (``host_slowness``, and the median ``raw_wall_s`` of the
iterations), and it prints:

- per side, the median and quartiles of every end-to-end metric of
  ``BENCHMARK.json`` and of ``raw_wall_s``;
- the pairs the change wins on each metric (ties count for neither side);
- whether a claim of a gain would hold: the change wins at least nine
  tenths of the pairs, and its median is better than the parent's by more
  than the parent's quartile spread;
- whether the change's median is worse than the parent's by more than the
  metric's bound;
- the runs whose host slowness is above 1.3 times the median of all runs,
  whose calibrated times can read low.

It writes nothing under ``perfbench/`` but the records that ``run.py``
itself writes in each checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SLOW = 1.3  # host slowness above this multiple of the run median is flagged
CLAIM_WINS = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``,
    inclusive method); one value is all three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, metrics) -> dict:
    """The summary of ``pairs``, a list of ``(parent, change)`` runs.

    Each run is a dict with ``metrics`` (name -> value, ``raw_wall_s``
    among them), ``host_slowness``, ``failed`` and ``seed``; ``metrics``
    lists the end-to-end metrics as ``BENCHMARK.json`` gives them (``name``,
    ``better``, ``bound``).  ``raw_wall_s`` is summarised as a metric where
    lower is better, with no bound.  A bound is relative to the parent's
    median.
    """
    rows = {}
    for metric in [*metrics, {"name": "raw_wall_s", "better": "lower", "bound": None}]:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        parent = [p["metrics"][name] for p, _ in pairs]
        change = [c["metrics"][name] for _, c in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        gain = sign * (pq[1] - cq[1])  # positive when the change's median is better
        bound = metric["bound"]
        rows[name] = {
            "parent": pq,
            "change": cq,
            "wins": wins,
            "claim_holds": wins >= CLAIM_WINS * len(pairs) and gain > pq[2] - pq[0],
            "worse_than_bound": bound is not None and -gain > bound * abs(pq[1]),
        }
    sides = ("parent", "change")
    runs = [(side, i, run) for i, pair in enumerate(pairs) for side, run in zip(sides, pair)]
    median_slowness = statistics.median(run["host_slowness"] for _, _, run in runs)
    slow = [
        {"side": side, "pair": i, "seed": run["seed"], "host_slowness": run["host_slowness"]}
        for side, i, run in runs
        if run["host_slowness"] > SLOW * median_slowness
    ]
    failed = {side: sum(pair[j]["failed"] for pair in pairs) for j, side in enumerate(sides)}
    return {"pairs": len(pairs), "metrics": rows, "slow_runs": slow, "failed": failed}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``, as :func:`summarize` reads it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    record = json.loads((checkout / record_path).read_text())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    raw = [it["raw_wall_s"] for it in record["iterations"] if not it["traced"]]
    metrics["raw_wall_s"] = statistics.median(raw)
    return {
        "seed": seed,
        "metrics": metrics,
        "failed": result["failed"],
        "host_slowness": record["host_slowness"],
    }


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    pairs = []
    for p in range(args.pairs):
        seed = args.seeds[p % len(args.seeds)]
        order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side] = r = run_once(getattr(args, side), args.workload, seed, args.seconds)
            m = r["metrics"]
            print(
                f"pair {p} seed {seed} {side:6s} wall_s {m['wall_s']:.4f} "
                f"raw_wall_s {m['raw_wall_s']:.4f} host_slowness {r['host_slowness']:.3f}",
                flush=True,
            )
        pairs.append((runs["parent"], runs["change"]))

    summary = summarize(pairs, bench["end_to_end"])
    print(f"\n{args.workload}: {summary['pairs']} pairs, failed runs {summary['failed']}")
    for name, row in summary["metrics"].items():
        (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
        print(
            f"{name:20s} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"change wins {row['wins']}/{summary['pairs']}  claim holds {row['claim_holds']}  "
            f"worse than bound {row['worse_than_bound']}"
        )
    for run in summary["slow_runs"]:
        print(
            f"slow host: {run['side']} pair {run['pair']} seed {run['seed']} "
            f"slowness {run['host_slowness']:.3f}"
        )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
