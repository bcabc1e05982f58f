"""Unit tests for time-binned series."""

import pytest

from repro.analysis.timeseries import (
    WEEK,
    bin_events,
    rate_stability,
)


def event(t, ok):
    return {"t": t, "ok": ok}


def bins_of(events, **kwargs):
    return bin_events(
        events,
        timestamp=lambda e: e["t"],
        predicate=lambda e: e["ok"],
        **kwargs,
    )


class TestBinEvents:
    def test_basic_binning(self):
        events = [event(10, True), event(20, False), event(110, True)]
        bins = bins_of(events, bin_width=100)
        assert len(bins) == 2
        assert bins[0].count == 2 and bins[0].matching == 1
        assert bins[0].rate == 0.5
        assert bins[1].count == 1 and bins[1].rate == 1.0

    def test_bin_boundaries(self):
        bins = bins_of([event(0, True), event(100, True)], bin_width=100)
        assert bins[0].start == 0 and bins[0].end == 100
        assert bins[0].count == 1
        assert bins[1].count == 1  # t=100 belongs to the second bin

    def test_empty_bins_kept(self):
        bins = bins_of([event(10, True), event(350, True)], bin_width=100)
        assert len(bins) == 4
        assert bins[1].count == 0
        assert bins[1].rate is None

    def test_explicit_range(self):
        bins = bins_of(
            [event(150, True)], bin_width=100, start=0.0, end=399.0
        )
        assert len(bins) == 4
        assert bins[1].count == 1

    def test_events_outside_range_dropped(self):
        bins = bins_of(
            [event(50, True), event(950, True)],
            bin_width=100,
            start=0.0,
            end=99.0,
        )
        assert sum(b.count for b in bins) == 1

    def test_no_events(self):
        assert bins_of([], bin_width=100) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            bins_of([event(1, True)], bin_width=0)
        with pytest.raises(ValueError):
            bins_of([event(1, True)], bin_width=10, start=100.0, end=0.0)


class TestRateHelpers:
    def test_rate_stability(self):
        bins = bins_of(
            [event(10, True), event(20, True), event(110, False), event(120, True)],
            bin_width=100,
        )
        # Rates: 1.0 and 0.5 -> stability 0.5.
        assert rate_stability(bins) == 0.5

    def test_rate_stability_none_when_empty(self):
        assert rate_stability([]) is None

    def test_week_constant(self):
        assert WEEK == 604800.0
