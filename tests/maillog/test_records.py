"""Unit tests for anonymized greylist log records and their text format."""

import pytest

from repro.maillog.records import (
    GreylistedMessageLog,
    anonymize,
    delivery_delays,
    dump_logs,
    parse_logs,
)


class TestAnonymize:
    def test_stable(self):
        a = anonymize("s@x.net", "r@y.net", "1.2.3.4")
        b = anonymize("s@x.net", "r@y.net", "1.2.3.4")
        assert a == b
        assert len(a) == 16

    def test_distinguishes_fields(self):
        base = anonymize("s@x.net", "r@y.net", "1.2.3.4")
        assert anonymize("s2@x.net", "r@y.net", "1.2.3.4") != base
        assert anonymize("s@x.net", "r2@y.net", "1.2.3.4") != base
        assert anonymize("s@x.net", "r@y.net", "1.2.3.5") != base

    def test_salt(self):
        assert anonymize("s@x.net", "r@y.net", "1.2.3.4", salt="a") != (
            anonymize("s@x.net", "r@y.net", "1.2.3.4", salt="b")
        )


class TestMessageLog:
    def test_delivery_delay(self):
        log = GreylistedMessageLog(
            message_key="k", attempt_times=[100.0, 500.0], delivered=True
        )
        assert log.delivery_delay == 400.0
        assert log.attempts == 2

    def test_undelivered_has_no_delay(self):
        log = GreylistedMessageLog(
            message_key="k", attempt_times=[100.0], delivered=False
        )
        assert log.delivery_delay is None

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            GreylistedMessageLog(message_key="k", attempt_times=[5.0, 1.0])


class TestSerialization:
    def _sample_logs(self):
        return [
            GreylistedMessageLog(
                message_key="aaaa", attempt_times=[0.0, 400.5], delivered=True
            ),
            GreylistedMessageLog(
                message_key="bbbb", attempt_times=[10.0], delivered=False
            ),
        ]

    def test_roundtrip(self):
        logs = self._sample_logs()
        parsed = parse_logs(dump_logs(logs))
        assert len(parsed) == 2
        assert parsed[0].message_key == "aaaa"
        assert parsed[0].delivered
        assert parsed[0].attempt_times == [0.0, 400.5]
        assert not parsed[1].delivered

    def test_empty(self):
        assert dump_logs([]) == ""
        assert parse_logs("") == []

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\naaaa delivered 0.000 400.000\n"
        parsed = parse_logs(text)
        assert len(parsed) == 1

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_logs("just-one-token")

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            parse_logs("aaaa maybe 0.0")

    def test_delivery_delays_extraction(self):
        delays = delivery_delays(self._sample_logs())
        assert delays == [400.5]
