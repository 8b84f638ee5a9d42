import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "artifact_match_frac", "better": "higher", "bound": 0.01},
]


def run(seed, wall, match=1.0, slowness=1.0, raw=None, failed=0):
    metrics = {"wall_s": wall, "artifact_match_frac": match, "raw_wall_s": raw or wall}
    return {"seed": seed, "metrics": metrics, "host_slowness": slowness, "failed": failed}


def test_summary_of_ten_pairs():
    # the change is faster in 9 of 10 pairs, by more than the parent's
    # quartile spread; parent run 3 reads a host slowness of 1.5 against a
    # median of 1.0, and one change run lost an artifact
    parent = [1.00, 1.02, 0.98, 1.04, 0.96, 1.01, 0.99, 1.03, 0.97, 1.00]
    change = [0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.90, 0.91, 0.98, 0.90]
    pairs_ = [
        (run(i, p, slowness=1.5 if i == 3 else 1.0), run(i, c, match=0.9 if i == 5 else 1.0))
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summary = pairs.summarize(pairs_, METRICS)
    wall = summary["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx((0.9825, 1.0, 1.0175))
    assert wall["change"] == pytest.approx((0.90, 0.90, 0.91))
    assert wall["wins"] == 9 and wall["claim_holds"] and not wall["worse_than_bound"]
    match = summary["metrics"]["artifact_match_frac"]
    assert match["parent"] == (1.0, 1.0, 1.0) and match["wins"] == 0
    assert not match["claim_holds"] and not match["worse_than_bound"]
    assert summary["metrics"]["raw_wall_s"]["wins"] == 9
    assert summary["slow_runs"] == [{"side": "parent", "pair": 3, "seed": 3, "host_slowness": 1.5}]
    assert summary["failed"] == {"parent": 0, "change": 0} and summary["pairs"] == 10


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread():
    # 8 wins of 10 fail the claim; a gap inside the parent's quartile
    # spread fails it too; a change 30 % slower is worse than the bound
    eight = [(run(i, 1.0), run(i, 0.8 if i < 8 else 1.2)) for i in range(10)]
    assert not pairs.summarize(eight, METRICS)["metrics"]["wall_s"]["claim_holds"]
    spread = [(run(i, 1.0 + 0.1 * (i % 2)), run(i, 0.99 + 0.1 * (i % 2))) for i in range(10)]
    row = pairs.summarize(spread, METRICS)["metrics"]["wall_s"]
    assert row["wins"] == 10 and not row["claim_holds"]
    slower = [(run(i, 1.0, failed=1), run(i, 1.3)) for i in range(4)]
    summary = pairs.summarize(slower, METRICS)
    assert summary["metrics"]["wall_s"]["worse_than_bound"]
    assert summary["failed"] == {"parent": 4, "change": 0}


def test_seed_range():
    assert pairs._seeds("90-99") == list(range(90, 100))
    assert pairs._seeds("7") == [7]
