import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from saferl import pipeline

_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


inproc_pairs = _load("inproc_pairs", _ROOT / "tools" / "inproc_pairs.py")
workloads = _load("perfbench_workloads", _ROOT / "perfbench" / "workloads.py")


@pytest.mark.parametrize("small", [False, True], ids=["timed", "set-up"])
def test_config_has_the_benchmarks_sizes(small):
    # the harness writes perfbench's scales out as literals; a change to
    # perfbench's FULL would otherwise leave it timing other sizes
    want = workloads.make_config(workloads.FULL[int(small)])
    got = inproc_pairs._config(pipeline, small)
    assert pipeline.config_to_dict(got) == pipeline.config_to_dict(want)


def test_summary_takes_the_ratio_of_each_rounds_minima():
    # round ratios 0.8, 0.9, 1.0 (a tie) and 1.25: the minimum of each side
    # counts, not its first or mean call
    rounds = [
        ([1.0, 0.5, 0.7], [0.4, 0.9, 0.6]),
        ([0.2, 0.3], [0.18, 0.5]),
        ([2.0], [2.0]),
        ([0.4, 0.8, 0.9, 0.5], [0.6, 0.5, 0.7, 0.55]),
    ]
    summary = inproc_pairs.summarize(rounds)
    assert summary["rounds"] == 4
    assert summary["ratios"] == pytest.approx([0.8, 0.9, 1.0, 1.25])
    assert summary["ratio_quartiles"] == pytest.approx((0.875, 0.95, 1.0625))
    assert summary["change_wins"] == 2 and summary["parent_wins"] == 1


def test_summary_of_one_round():
    summary = inproc_pairs.summarize([([0.5, 0.4], [0.3])])
    assert summary["ratio_quartiles"] == pytest.approx((0.75, 0.75, 0.75))
    assert (summary["change_wins"], summary["parent_wins"]) == (1, 0)


def test_stages_include_the_whole_workloads():
    # perfbench's verify_safe and verify_agent iterations, each timed as
    # one call per side
    assert {"verify_safe_workload", "verify_agent_workload"} <= set(inproc_pairs.STAGES)
    assert len(set(inproc_pairs.STAGES)) == len(inproc_pairs.STAGES)


def test_histogram_agent_times_run_histogram_with_the_set_up_policy(tmp_path):
    # set-up expands and trains into an inputs directory at the small
    # sizes; the timed call is run_histogram with that policy, at the timed
    # sizes, into a directory with no persisted box (safe and agent runs)
    calls = []
    policy = tmp_path / "inputs" / "policy.bin"

    def record(name, result=None):
        def run(*args, **kwargs):
            calls.append((name, args, kwargs))
            return result

        return run

    fake = SimpleNamespace(
        default_config=pipeline.default_config,
        run_expand=record("expand"),
        run_train=record("train", (None, {"policy": policy})),
        run_histogram=record("histogram"),
        run_verify_agent=record("verify_agent"),
    )
    assert "histogram_agent" in inproc_pairs.STAGES
    call = inproc_pairs._stage_call(fake, "histogram_agent", tmp_path, 5)
    small = inproc_pairs._config(pipeline, True)
    assert calls == [
        ("expand", (small, tmp_path / "inputs"), {"seed": 5}),
        ("train", (small, tmp_path / "inputs"), {"seed": 5}),
    ]
    calls.clear()
    call()
    cfg = inproc_pairs._config(pipeline, False)
    assert calls == [("histogram", (cfg, policy, tmp_path / "out"), {"seed": 5})]
    assert not (tmp_path / "out" / "expansion.json").exists()
