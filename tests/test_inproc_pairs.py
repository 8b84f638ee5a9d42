import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "inproc_pairs.py"
_SPEC = importlib.util.spec_from_file_location("inproc_pairs", _PATH)
inproc_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(inproc_pairs)


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
