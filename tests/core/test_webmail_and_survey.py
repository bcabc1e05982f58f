"""Tests for the Table III webmail experiment and Table IV MTA survey."""

import pytest

from repro.core.mta_survey import run_mta_survey, survey_mta
from repro.core.webmail_experiment import (
    SIX_HOURS,
    run_provider,
    run_webmail_experiment,
)
from repro.mta.profiles import PROFILES
from repro.sim.clock import format_duration
from repro.webmail.providers import PROVIDER_BY_NAME, PROVIDERS

#: Table III expectations: provider -> (same_ip, attempts, delivered).
PAPER_TABLE3 = {
    "gmail.com": (False, 9, True),
    "yahoo.co.uk": (True, 9, True),
    "hotmail.com": (True, 94, True),
    "qq.com": (False, 12, False),
    "mail.ru": (False, 13, True),
    "yandex.com": (True, 28, True),
    "mail.com": (False, 10, True),
    "gmx.com": (False, 10, True),
    "aol.com": (True, 5, False),
    "india.com": (True, 10, True),
}


@pytest.fixture(scope="module")
def rows():
    return run_webmail_experiment()


class TestTable3Reproduction:
    def test_all_ten_rows(self, rows):
        assert [r.provider for r in rows] == [p.name for p in PROVIDERS]

    def test_same_ip_column(self, rows):
        for row in rows:
            assert row.same_ip == PAPER_TABLE3[row.provider][0], row.provider

    def test_attempt_counts(self, rows):
        for row in rows:
            assert row.attempts == PAPER_TABLE3[row.provider][1], row.provider

    def test_delivery_verdicts(self, rows):
        for row in rows:
            assert row.delivered == PAPER_TABLE3[row.provider][2], row.provider

    def test_gmail_delay_stamps(self, rows):
        gmail = next(r for r in rows if r.provider == "gmail.com")
        assert gmail.delays_mmss() == [
            "6:02", "29:02", "56:36", "98:44", "162:03", "229:44",
            "309:05", "434:46",
        ]

    def test_aol_abandons_after_half_hour(self, rows):
        aol = next(r for r in rows if r.provider == "aol.com")
        assert aol.delays_mmss() == ["5:32", "11:32", "21:32", "31:32"]
        assert not aol.delivered

    def test_hotmail_delivers_just_past_6h(self, rows):
        hotmail = next(r for r in rows if r.provider == "hotmail.com")
        assert hotmail.delivery_age >= SIX_HOURS
        assert format_duration(hotmail.delivery_age) == "362:11"

    def test_delivered_rows_pass_the_threshold(self, rows):
        for row in rows:
            if row.delivered:
                assert row.delivery_age >= SIX_HOURS
            else:
                assert all(age < SIX_HOURS for age in row.retry_delays)

    def test_multi_ip_providers_need_ip_reuse(self, rows):
        # mail.ru only delivers because its farm lands back on an address
        # whose triplet is old enough; verify reuse actually happened.
        mailru = next(r for r in rows if r.provider == "mail.ru")
        assert mailru.delivered
        spec = PROVIDER_BY_NAME["mail.ru"]
        used = [spec.pool_index(n) for n in range(1, mailru.attempts + 1)]
        assert len(used) > len(set(used))


class TestThresholdVariations:
    def test_small_threshold_everyone_delivers(self):
        for spec in PROVIDERS:
            row = run_provider(spec, threshold=300.0)
            assert row.delivered, spec.name

    def test_aol_fails_even_at_one_hour(self):
        # aol gives up after ~30 minutes; any threshold beyond that kills it.
        row = run_provider(PROVIDER_BY_NAME["aol.com"], threshold=3600.0)
        assert not row.delivered

    def test_single_ip_fast_retrier_beats_most_thresholds(self):
        row = run_provider(PROVIDER_BY_NAME["hotmail.com"], threshold=3600.0)
        assert row.delivered
        assert row.delivery_age >= 3600.0


class TestTable4Survey:
    def test_six_rows_in_order(self):
        rows = run_mta_survey()
        assert [r.mta for r in rows] == [
            "sendmail", "exim", "postfix", "qmail", "courier", "exchange",
        ]

    def test_queue_lifetimes(self):
        rows = {r.mta: r for r in run_mta_survey()}
        assert rows["sendmail"].max_queue_days == 5
        assert rows["exim"].max_queue_days == 4
        assert rows["postfix"].max_queue_days == 5
        assert rows["qmail"].max_queue_days == 7
        assert rows["courier"].max_queue_days == 7
        assert rows["exchange"].max_queue_days == 2

    def test_only_exchange_violates_rfc(self):
        rows = run_mta_survey()
        violators = [r.mta for r in rows if not r.rfc_compliant_lifetime]
        assert violators == ["exchange"]

    def test_paper_schedule_prefixes(self):
        rows = {r.mta: r for r in run_mta_survey()}
        assert rows["sendmail"].retransmission_minutes[:3] == [10, 20, 30]
        assert rows["exim"].retransmission_minutes[:2] == [15, 30]
        assert rows["postfix"].retransmission_minutes[:3] == [5, 10, 15]
        assert rows["qmail"].retransmission_minutes[0] == pytest.approx(
            6.67, abs=0.01
        )
        assert rows["courier"].retransmission_minutes[:3] == [5, 10, 15]
        assert rows["exchange"].retransmission_minutes[:2] == [15, 30]

    def test_survey_single_profile(self):
        row = survey_mta(PROFILES["postfix"])
        assert row.mta == "postfix"
        assert row.retransmission_minutes[:3] == [5, 10, 15]
