import pytest

import stats


def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 50) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_beyond_counts_samples_past_the_rank():
    assert stats.beyond(100, 90) == 10
    assert stats.beyond(100, 99) == 1
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(1000, 99.9) == 1


def test_deepest_needs_ten_samples_beyond():
    assert stats.deepest(9) is None  # not even the median has 10 beyond
    assert stats.deepest(20) == 50.0
    assert stats.deepest(100) == 90.0
    assert stats.deepest(999) == 90.0  # p99 has only 9 beyond
    assert stats.deepest(1000) == 99.0
    assert stats.deepest(10_000) == 99.9


def test_tail_summary_reports_counts():
    summary = stats.tail_summary([float(v) for v in range(1000, 0, -1)])
    assert summary["n"] == 1000
    assert summary["p50"] == 500.0
    assert summary["p90"] == 900.0
    assert summary["p99_beyond"] == 10
    assert summary["deepest"] == (99.0, 990.0, 10)
    assert "p99=990.0000 ms (10 beyond)" in stats.format_tail(summary)


def test_quartile_spread_matches_statistics_quantiles():
    median, spread = stats.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert median == 5.5
    assert spread == pytest.approx((8.25 - 2.75) / 5.5)
