"""Unit tests for the bootstrap confidence intervals."""

from statistics import fmean

import pytest

from repro.analysis.bootstrap import (
    ConfidenceInterval,
    bootstrap_ci,
    median,
)


class TestStatistics:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])


class TestBootstrapCI:
    def test_interval_contains_estimate(self):
        ci = bootstrap_ci(list(range(100)), median, seed=1)
        assert ci.estimate in ci
        assert ci.low <= ci.estimate <= ci.high

    def test_deterministic_for_seed(self):
        samples = [1.0, 5.0, 9.0, 2.0, 7.0, 3.0]
        a = bootstrap_ci(samples, fmean, seed=4)
        b = bootstrap_ci(samples, fmean, seed=4)
        assert (a.low, a.high) == (b.low, b.high)

    def test_different_seeds_differ(self):
        samples = [1.0, 5.0, 9.0, 2.0, 7.0, 3.0]
        a = bootstrap_ci(samples, fmean, seed=4, resamples=100)
        b = bootstrap_ci(samples, fmean, seed=5, resamples=100)
        assert (a.low, a.high) != (b.low, b.high)

    def test_narrower_for_larger_samples(self):
        small = bootstrap_ci([float(i % 10) for i in range(20)], fmean, seed=1)
        large = bootstrap_ci([float(i % 10) for i in range(2000)], fmean, seed=1)
        assert large.high - large.low < small.high - small.low

    def test_higher_level_wider(self):
        samples = [float(i % 17) for i in range(100)]
        narrow = bootstrap_ci(samples, fmean, level=0.5, seed=1)
        wide = bootstrap_ci(samples, fmean, level=0.99, seed=1)
        assert wide.high - wide.low >= narrow.high - narrow.low

    def test_constant_sample_zero_width(self):
        ci = bootstrap_ci([5.0] * 30, fmean, seed=1)
        assert ci.low == ci.high == ci.estimate == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], fmean)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], fmean, level=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], fmean, resamples=5)

    def test_str_rendering(self):
        ci = ConfidenceInterval(estimate=2.0, low=1.0, high=3.0, level=0.95)
        assert "95%" in str(ci)
        assert 2.5 in ci
        assert 4.0 not in ci
