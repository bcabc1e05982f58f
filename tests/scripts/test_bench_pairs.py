"""The verdict rule of scripts/bench_pairs.py, on hand-made numbers.

A claimed gain needs at least ten pairs, nine wins in every ten (ties
count for neither side) and a median gap wider than the parent's
interquartile range, with quartiles taken as perfbench's spread tool
takes them.  Any other metric is a regression past its bound, unresolved
where either side spreads wider than the bound, and ok otherwise.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_pairs"] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules["bench_pairs"]


#: Ten parent runs: median 100.5, quartiles 99.0 and 102.0 (IQR 3.0).
PARENT = [98.0, 99.0, 99.0, 100.0, 100.0, 101.0, 101.0, 102.0, 102.0, 103.0]


class TestClaimedGain:
    def test_ten_wins_and_a_gap_past_the_iqr(self, bench_pairs):
        change = [value - 10.0 for value in PARENT]
        result = bench_pairs.compare(PARENT, change, "lower", 0.25, True)
        assert (result.wins, result.ties, result.pairs) == (10, 0, 10)
        assert result.parent == (99.0, 100.5, 102.0)
        assert result.parent_iqr == 3.0
        assert result.verdict == "gain"

    def test_nine_wins_and_a_tie_is_enough(self, bench_pairs):
        change = [value - 10.0 for value in PARENT[:9]] + [PARENT[9]]
        result = bench_pairs.compare(PARENT, change, "lower", 0.25, True)
        assert (result.wins, result.ties) == (9, 1)
        assert result.verdict == "gain"

    def test_ties_count_for_neither_side(self, bench_pairs):
        # Eight wins and two ties: the ties do not make up the ninth win.
        change = [value - 10.0 for value in PARENT[:8]] + PARENT[8:]
        result = bench_pairs.compare(PARENT, change, "lower", 0.25, True)
        assert (result.wins, result.ties) == (8, 2)
        assert result.verdict == "not met"

    @pytest.mark.parametrize("pairs", [1, 9])
    def test_fewer_than_ten_pairs_is_not_enough(self, bench_pairs, pairs):
        # Every pair won by a gap far past the parent's IQR.
        parent = PARENT[:pairs]
        change = [value - 10.0 for value in parent]
        result = bench_pairs.compare(parent, change, "lower", 0.25, True)
        assert result.wins == pairs
        assert result.verdict == "not met"

    def test_every_pair_won_by_less_than_the_iqr(self, bench_pairs):
        change = [value - 1.0 for value in PARENT]
        result = bench_pairs.compare(PARENT, change, "lower", 0.25, True)
        assert result.wins == 10
        assert result.verdict == "not met"

    def test_higher_is_better_for_rates(self, bench_pairs):
        change = [value + 10.0 for value in PARENT]
        gained = bench_pairs.compare(PARENT, change, "higher", 0.25, True)
        assert gained.verdict == "gain"
        lost = bench_pairs.compare(change, PARENT, "higher", 0.25, True)
        assert (lost.wins, lost.verdict) == (0, "not met")


class TestOtherMetrics:
    def test_within_the_bound_is_ok(self, bench_pairs):
        change = [value + 1.0 for value in PARENT]
        result = bench_pairs.compare(PARENT, change, "lower", 0.25, False)
        assert result.wins == 0
        assert result.verdict == "ok"

    def test_worse_past_the_bound_is_a_regression(self, bench_pairs):
        change = [value * 1.3 for value in PARENT]
        result = bench_pairs.compare(PARENT, change, "lower", 0.25, False)
        assert result.verdict == "regression"
        rates = bench_pairs.compare(PARENT, [v * 0.7 for v in PARENT], "higher", 0.25, False)
        assert rates.verdict == "regression"

    def test_spread_wider_than_the_bound_is_unresolved(self, bench_pairs):
        # Same median, but each side's IQR (80 to 120) is 40 % of it.
        parent = [60.0, 80.0, 80.0, 100.0, 100.0, 100.0, 100.0, 120.0, 120.0, 140.0]
        change = list(reversed(parent))
        result = bench_pairs.compare(parent, change, "lower", 0.25, False)
        assert (result.wins, result.ties) == (3, 4)
        assert result.parent_iqr == 40.0
        assert result.verdict == "unresolved"

    def test_wide_spread_with_every_change_run_better_is_ok(self, bench_pairs):
        parent = [100.0, 130.0, 160.0, 190.0]
        change = [50.0, 60.0, 70.0, 99.0]
        result = bench_pairs.compare(parent, change, "lower", 0.1, False)
        assert result.verdict == "ok"

    def test_mismatched_runs_are_refused(self, bench_pairs):
        with pytest.raises(ValueError):
            bench_pairs.compare([1.0, 2.0], [1.0], "lower", 0.25, False)
        with pytest.raises(ValueError):
            bench_pairs.compare([1.0], [1.0], "faster", 0.25, False)

