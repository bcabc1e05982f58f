"""Unit tests for retry schedules."""

import pytest

from repro.mta.schedule import (
    DAY,
    FixedIntervalSchedule,
    RetrySchedule,
    TableSchedule,
)


def test_base_schedule_has_no_timing():
    with pytest.raises(NotImplementedError):
        RetrySchedule().next_delay(1, 0.0)


class TestFixedInterval:
    def test_constant_delay(self):
        schedule = FixedIntervalSchedule(interval=600)
        assert schedule.next_delay(1, 0) == 600
        assert schedule.next_delay(7, 3600) == 600

    def test_gives_up_at_queue_lifetime(self):
        schedule = FixedIntervalSchedule(interval=600, max_queue_time=1200)
        # A retry landing exactly on the lifetime is still made ...
        assert schedule.next_delay(2, 600) == 600
        # ... but one that would land past it is not.
        assert schedule.next_delay(3, 1200) is None

    def test_attempt_times(self):
        schedule = FixedIntervalSchedule(interval=600, max_queue_time=DAY)
        times = schedule.attempt_times(1800)
        assert times == [0.0, 600.0, 1200.0, 1800.0]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            FixedIntervalSchedule(interval=0)

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            FixedIntervalSchedule(interval=-600)

    def test_without_queue_lifetime_never_gives_up(self):
        schedule = FixedIntervalSchedule(interval=600, max_queue_time=None)
        assert schedule.next_delay(10_000, 365 * DAY) == 600

    def test_attempt_exactly_at_max_queue_time_is_kept(self):
        # Table IV semantics: an MTA whose queue lifetime is 4 h still
        # makes the retry that lands exactly at the 4-hour mark — the
        # give-up comparison in ``_expired`` is strict (>), not >=.
        schedule = FixedIntervalSchedule(
            interval=3600, max_queue_time=4 * 3600
        )
        times = schedule.attempt_times(10 * 3600)
        assert times[-1] == 4 * 3600.0
        assert times == [0.0, 3600.0, 7200.0, 10800.0, 14400.0]
        # ... and the attempt after that is abandoned.
        assert schedule.next_delay(5, 4 * 3600.0) is None


class TestTableSchedule:
    def test_follows_explicit_ages(self):
        schedule = TableSchedule(ages=[300, 900, 1800])
        # Attempt 1 fails at age 0 -> next at 300.
        assert schedule.next_delay(1, 0) == 300
        # Attempt 2 fails at 300 -> next at 900.
        assert schedule.next_delay(2, 300) == 600
        assert schedule.next_delay(3, 900) == 900

    def test_repeat_last_gap(self):
        schedule = TableSchedule(ages=[300, 900], repeat_last=True)
        assert schedule.next_delay(3, 900) == 600  # 900 - 300
        assert schedule.next_delay(10, 5000) == 600

    def test_repeat_single_entry_table_repeats_its_age(self):
        schedule = TableSchedule(ages=[600], repeat_last=True)
        assert schedule.next_delay(1, 0) == 600
        assert schedule.next_delay(2, 600) == 600
        assert schedule.attempt_times(2400) == [0.0, 600.0, 1200.0, 1800.0, 2400.0]

    def test_empty_table_with_repeat_never_retries(self):
        schedule = TableSchedule(ages=[], repeat_last=True)
        assert schedule.next_delay(1, 0) is None

    def test_no_repeat_gives_up(self):
        schedule = TableSchedule(ages=[300, 900], repeat_last=False)
        assert schedule.next_delay(3, 900) is None

    def test_empty_table_without_repeat_never_retries(self):
        schedule = TableSchedule(ages=[], repeat_last=False)
        assert schedule.next_delay(1, 0) is None
        assert schedule.attempt_times(DAY) == [0.0]

    def test_drift_falls_back_to_nominal_gap(self):
        schedule = TableSchedule(ages=[300, 900])
        # Attempt 2 fired late (age 400 > nominal 300): still positive delay.
        delay = schedule.next_delay(2, 400)
        assert delay is not None and delay > 0

    def test_late_attempt_past_next_age_waits_nominal_gap(self):
        # Attempt 2 ran so late (age 1000) that attempt 3's table age (900)
        # is already behind it: wait the table's 300 -> 900 gap instead.
        schedule = TableSchedule(ages=[300, 900, 1800])
        assert schedule.next_delay(2, 1000) == 600

    def test_late_first_attempt_waits_first_age(self):
        schedule = TableSchedule(ages=[300, 900])
        assert schedule.next_delay(1, 450) == 300

    def test_nominal_gap_fallback_waits_at_least_a_second(self):
        schedule = TableSchedule(ages=[0.25, 0.5], max_queue_time=None)
        assert schedule.next_delay(2, 0.75) == 1.0

    def test_gives_up_at_queue_lifetime(self):
        schedule = TableSchedule(ages=[300, 900], max_queue_time=600)
        assert schedule.next_delay(1, 0) == 300
        # Attempt 3 would land at age 900, past the 600-second lifetime.
        assert schedule.next_delay(2, 300) is None

    def test_attempt_times_stop_with_the_table(self):
        schedule = TableSchedule(
            ages=[300, 900], max_queue_time=None, repeat_last=False
        )
        assert schedule.attempt_times(DAY) == [0.0, 300.0, 900.0]

    def test_attempt_times_repeat_the_last_gap(self):
        schedule = TableSchedule(ages=[300, 900], max_queue_time=None)
        assert schedule.attempt_times(2200) == [0.0, 300.0, 900.0, 1500.0, 2100.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TableSchedule(ages=[300, 200])
        with pytest.raises(ValueError):
            TableSchedule(ages=[300, 300])
        with pytest.raises(ValueError):
            TableSchedule(ages=[-1])

    def test_attempt_times_monotonic(self):
        schedule = TableSchedule(ages=[300, 900, 1800], max_queue_time=DAY)
        times = schedule.attempt_times(7200)
        assert times[0] == 0.0
        assert all(b > a for a, b in zip(times, times[1:]))

