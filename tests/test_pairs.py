"""Unit tests for the statistics of ``tools/pairs.py`` on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 0.95, 1.05, 1.15, 1.0]


def test_quartiles_use_the_exclusive_method_of_perfbench_spread():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.25, 2.5, 3.75)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_wins_count_strictly_better_pairs_and_ties_for_neither():
    assert pairs.wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "lower") == 1
    assert pairs.wins([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "higher") == 1
    with pytest.raises(ValueError):
        pairs.wins([1.0, 2.0], [1.0], "lower")


def test_a_gain_needs_nine_of_ten_pairs_and_more_than_the_parent_iqr():
    q1, median, q3 = pairs.quartiles(PARENT)
    assert (q1, median, q3) == pytest.approx((0.9875, 1.025, 1.1625))
    faster = [p - 0.2 for p in PARENT]  # every pair won, by more than the IQR
    verdict = pairs.judge(PARENT, faster, "lower", 0.24)
    assert verdict["wins"] == 10 and verdict["gain"] and verdict["within_bound"]
    # eight wins of ten is not enough, however large the gap
    eight = faster[:8] + [p + 0.01 for p in PARENT[8:]]
    assert pairs.judge(PARENT, eight, "lower", 0.24)["wins"] == 8
    assert not pairs.judge(PARENT, eight, "lower", 0.24)["gain"]
    # every pair won, but by less than the parent's spread
    slightly = [p - 0.01 for p in PARENT]
    verdict = pairs.judge(PARENT, slightly, "lower", 0.24)
    assert verdict["wins"] == 10 and not verdict["gain"]


def test_the_bound_is_a_share_of_the_parent_median_in_the_worse_direction():
    slower = [p * 1.2 for p in PARENT]
    assert pairs.judge(PARENT, slower, "lower", 0.24)["within_bound"]
    assert not pairs.judge(PARENT, slower, "lower", 0.1)["within_bound"]
    # for a higher-is-better metric a fall is the worse direction
    share = [1.0] * 10
    assert pairs.judge(share, [0.995] * 10, "higher", 0.01)["within_bound"]
    assert not pairs.judge(share, [0.98] * 10, "higher", 0.01)["within_bound"]
    assert pairs.judge(share, share, "higher", 0.01) == {
        "parent": (1.0, 1.0, 1.0), "change": (1.0, 1.0, 1.0), "wins": 0, "pairs": 10,
        "parent_iqr": 0.0, "gain": False, "within_bound": True,
    }
