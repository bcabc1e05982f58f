"""Unit tests for the virtual clock and duration formatting."""

import pytest

from repro.sim.clock import Clock, ClockError, format_duration


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Clock().now == 0.0

    def test_custom_start(self):
        assert Clock(start=12.5).now == 12.5

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            Clock(start=-1.0)

    def test_advance_to_moves_forward(self):
        clock = Clock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_same_time_is_noop(self):
        clock = Clock(start=5.0)
        clock.advance_to(5.0)
        assert clock.now == 5.0

    def test_advance_to_past_rejected(self):
        clock = Clock(start=5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.9)

    def test_advance_by(self):
        clock = Clock()
        clock.advance_by(3.0)
        clock.advance_by(0.0)
        assert clock.now == 3.0

    def test_advance_by_negative_rejected(self):
        with pytest.raises(ClockError):
            Clock().advance_by(-0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ClockError):
            Clock(start=bad)
        clock = Clock(start=2.0)
        with pytest.raises(ClockError):
            clock.advance_to(bad)
        with pytest.raises(ClockError):
            clock.advance_by(bad)
        assert clock.now == 2.0

    def test_repr_contains_time(self):
        assert "7.000" in repr(Clock(start=7.0))


class TestDurationFormat:
    def test_format_simple(self):
        assert format_duration(362) == "6:02"

    def test_format_zero(self):
        assert format_duration(0) == "0:00"

    def test_format_large(self):
        # Table III's largest stamp: 434:46.
        assert format_duration(26086) == "434:46"

    def test_format_rounds(self):
        assert format_duration(59.6) == "1:00"

    def test_format_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)

    def test_parse_roundtrip(self):
        for seconds in (0, 61, 362, 21731, 26086):
            minutes, secs = format_duration(seconds).split(":")
            assert len(secs) == 2 and int(secs) < 60
            assert int(minutes) * 60 + int(secs) == seconds
