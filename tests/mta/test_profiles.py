"""Unit tests for the Table IV MTA profiles."""

import pytest

from repro.mta.profiles import (
    PROFILE_ORDER,
    PROFILES,
    RFC_MIN_GIVEUP_DAYS,
    build_profiles,
    rfc_compliant_lifetime,
)
from repro.mta.schedule import FixedIntervalSchedule, TableSchedule


class TestProfileTable:
    def test_all_six_mtas_present(self):
        assert set(PROFILE_ORDER) == {
            "sendmail",
            "exim",
            "postfix",
            "qmail",
            "courier",
            "exchange",
        }
        assert set(PROFILES) == set(PROFILE_ORDER)

    def test_build_profiles_fresh_copies(self):
        assert build_profiles() is not PROFILES

    def test_max_queue_days_match_paper(self):
        expected = {
            "sendmail": 5,
            "exim": 4,
            "postfix": 5,
            "qmail": 7,
            "courier": 7,
            "exchange": 2,
        }
        for name, days in expected.items():
            assert PROFILES[name].max_queue_days == days

    def test_exchange_is_the_only_rfc_violator(self):
        # "Exchange was the only MTA not RFC-822 compliant with respect to
        # the time-to-live."
        violators = [
            name
            for name in PROFILE_ORDER
            if not rfc_compliant_lifetime(PROFILES[name])
        ]
        assert violators == ["exchange"]

    def test_rfc_guidance_constant(self):
        assert RFC_MIN_GIVEUP_DAYS == 4.0


class TestScheduleShapes:
    def test_sendmail_regular_ten_minutes(self):
        minutes = PROFILES["sendmail"].retransmission_minutes()
        assert minutes[:6] == [10, 20, 30, 40, 50, 60]
        assert minutes[-1] == 600

    def test_exim_table(self):
        minutes = PROFILES["exim"].retransmission_minutes()
        assert minutes[:9] == [15, 30, 45, 60, 75, 90, 105, 120, 180]
        assert 405 in minutes

    def test_postfix_table(self):
        minutes = PROFILES["postfix"].retransmission_minutes()
        assert minutes[:7] == [5, 10, 15, 20, 25, 30, 45]
        assert minutes[-1] == 600

    def test_qmail_quadratic(self):
        minutes = PROFILES["qmail"].retransmission_minutes()
        # 400 * n^2 seconds = 6.67, 26.67, 60, 106.67 ... minutes
        assert minutes[0] == pytest.approx(6.67, abs=0.01)
        assert minutes[1] == pytest.approx(26.67, abs=0.01)
        assert minutes[2] == pytest.approx(60.0, abs=0.01)
        assert minutes[3] == pytest.approx(106.67, abs=0.01)

    def test_courier_clusters_of_three(self):
        minutes = PROFILES["courier"].retransmission_minutes()
        assert minutes[:6] == [5, 10, 15, 30, 35, 40]
        assert minutes[6:9] == [70, 75, 80]

    def test_exchange_fixed_fifteen(self):
        minutes = PROFILES["exchange"].retransmission_minutes()
        assert minutes[:4] == [15, 30, 45, 60]
        gaps = {round(b - a, 6) for a, b in zip(minutes, minutes[1:])}
        assert gaps == {15.0}

    def test_every_schedule_is_a_fixed_interval_or_a_table(self):
        # The two shapes repro.mta.schedule keeps cover all of Table IV.
        shapes = {
            name: type(PROFILES[name].schedule) for name in PROFILE_ORDER
        }
        assert shapes == {
            "sendmail": FixedIntervalSchedule,
            "exim": TableSchedule,
            "postfix": TableSchedule,
            "qmail": TableSchedule,
            "courier": TableSchedule,
            "exchange": FixedIntervalSchedule,
        }

    def test_all_schedules_monotonic(self):
        for name in PROFILE_ORDER:
            minutes = PROFILES[name].retransmission_minutes()
            assert all(b > a for a, b in zip(minutes, minutes[1:])), name

    def test_all_schedules_have_entries_within_ten_hours(self):
        for name in PROFILE_ORDER:
            minutes = PROFILES[name].retransmission_minutes()
            assert minutes, name
            assert minutes[-1] <= 600.0, name
