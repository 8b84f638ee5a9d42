"""Tests of the benchmark itself, on its fast smoke mode.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostclock
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke():
    """Smoke results keyed by (workload, trace)."""
    return {
        (w["name"], trace): _result(_run(w["name"], trace))
        for w in SPEC["workloads"]
        for trace in (0, 1)
    }


def test_workloads_are_the_named_ones():
    assert [w["name"] for w in SPEC["workloads"]] == ["verify_safe", "train", "verify_agent"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_schema(smoke, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in SPEC["workloads"]:
        result = smoke[(w["name"], trace)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_end_to_end_metrics_are_nonzero(smoke):
    for w in SPEC["workloads"]:
        metrics = smoke[(w["name"], 0)]["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), metrics
        assert metrics["artifact_match_frac"]["value"] == 1.0


def test_idle_layers_show_zero_calls(smoke):
    train = smoke[("train", 1)]["metrics"]
    assert train["stl.calls"]["value"] == 0
    assert train["verify.calls"]["value"] == 0
    assert train["ppo.calls"]["value"] > 0
    safe = smoke[("verify_safe", 1)]["metrics"]
    assert safe["mlp.calls"]["value"] == 0
    assert safe["ppo.calls"]["value"] == 0
    assert safe["boxes.sample.calls_per_step"]["value"] > 0.5
    agent = smoke[("verify_agent", 1)]["metrics"]
    assert agent["mlp.net_forward.b1.us"]["value"] > 0
    assert agent["ppo.calls"]["value"] == 0


def test_count_metrics_repeat_exactly(smoke):
    again = _result(_run("verify_safe", 1))["metrics"]
    first = smoke[("verify_safe", 1)]["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = _run("verify_safe", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_excludes_children():
    tracer = tracing.Tracer()

    def child():
        _spin(0.01)

    wrapped_child = tracer._wrap(child, "test.child")

    def parent():
        _spin(0.01)
        wrapped_child()
        wrapped_child()

    tracer._wrap(parent, "test.parent")()
    per_name = tracer.collect()["per_name"]
    assert per_name["test.child"]["calls"] == 2
    child_ns = per_name["test.child"]["ns"]
    parent_agg = per_name["test.parent"]
    assert parent_agg["self_ns"] == pytest.approx(parent_agg["ns"] - child_ns)
    assert 0.009e9 < parent_agg["self_ns"] < parent_agg["ns"]


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("saferl.stl", "no_such_name", "stl.gone"),))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["stl.gone"]
    finally:
        tracer.uninstall()
    import saferl.evasion
    import saferl.stl

    assert saferl.evasion.satisfies is saferl.stl.satisfies
    assert not hasattr(saferl.evasion.satisfies, "__wrapped__")


def test_calibrated_time_removes_interrupts_and_scales_by_slowness():
    clock = hostclock.HostClock()
    ref = hostclock.REFERENCE_KERNEL_S
    for start, kernel in ((1.0, 2 * ref), (1.5, 2 * ref), (3.0, ref)):
        clock.tick_start.append(start)
        clock.kernel_s.append(kernel)
        clock.tick_spent.append(0.25)
    # Two interrupts (0.5 s) inside [0, 2), host twice as slow as the reference.
    assert clock.calibrated(0.0, 2.0) == pytest.approx(1.5 / 2.0)
    # No sample inside: the whole run's mean slowness (5/3) is used.
    assert clock.calibrated(2.0, 2.5) == pytest.approx(0.5 / (5 / 3))


def test_clock_samples_while_started():
    clock = hostclock.HostClock()
    clock.start()
    try:
        t0 = time.perf_counter()
        _spin(0.2)
        t1 = time.perf_counter()
    finally:
        clock.stop()
    assert len(clock.kernel_s) >= 3
    assert 0 < clock.calibrated(t0, t1)
