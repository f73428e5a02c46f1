"""The acceptance rule of ``scripts/bench_pairs.py``, on synthetic runs.

``compare`` summarizes one metric's paired runs and ``claim`` decides whether
a claimed gain is met: at least 9 wins in 10 pairs, and a median better than
the parent's by more than the parent's interquartile range. No benchmark runs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

LOWER = {"unit": "us", "better": "lower", "bound": 0.25}
HIGHER = {"unit": "MB/s", "better": "higher", "bound": 0.25}
PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # IQR 4.5


def _claim(spec, parent, change) -> dict:
    report = {"workloads": {"w": {"metrics": {"m": bench_pairs.compare(spec, parent, change)}}}}
    return bench_pairs.claim(report, "w", "m")


def test_nine_wins_in_ten_beyond_the_parents_spread_is_met():
    change = [p - 10 for p in PARENT[:9]] + [PARENT[9] + 1]
    got = _claim(LOWER, PARENT, change)
    assert got["change_wins"] == "9/10"
    assert got["parent_interquartile_range"] == 4.5
    assert got["median_difference"] == 10.0
    assert got["met"]


def test_eight_wins_in_ten_is_not_met():
    change = [p - 10 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]]
    got = _claim(LOWER, PARENT, change)
    assert got["change_wins"] == "8/10"
    assert got["median_difference"] > got["parent_interquartile_range"]
    assert not got["met"]


def test_every_pair_won_by_less_than_the_parents_spread_is_not_met():
    got = _claim(LOWER, PARENT, [p - 1 for p in PARENT])
    assert got["change_wins"] == "10/10"
    assert got["median_difference"] == 1.0 < got["parent_interquartile_range"]
    assert not got["met"]


@pytest.mark.parametrize("spec", [LOWER, HIGHER], ids=["lower", "higher"])
def test_ties_count_for_neither_side(spec):
    assert bench_pairs.compare(spec, PARENT, PARENT)["change_wins"] == "0/10"
    better = -1 if spec is LOWER else 1
    one_better = [PARENT[0] + better] + PARENT[1:]
    assert bench_pairs.compare(spec, PARENT, one_better)["change_wins"] == "1/10"


def test_higher_is_better_counts_a_larger_value_as_a_win():
    change = [p + 10 for p in PARENT[:9]] + [PARENT[9] - 1]
    got = _claim(HIGHER, PARENT, change)
    assert got["change_wins"] == "9/10"
    assert got["median_difference"] == 9.0  # 113.5 against 104.5
    assert got["met"]
    assert not _claim(HIGHER, PARENT, [p - 10 for p in PARENT])["met"]


@pytest.mark.parametrize("spec, edge, past", [
    (LOWER, 125.0, 125.5),  # the parent's median 100, 25% worse
    (HIGHER, 75.0, 74.5),
], ids=["lower", "higher"])
def test_within_bound_holds_exactly_at_the_bound(spec, edge, past):
    parent = [100.0] * 5
    assert bench_pairs.compare(spec, parent, [edge] * 5)["within_bound"]
    assert not bench_pairs.compare(spec, parent, [past] * 5)["within_bound"]
