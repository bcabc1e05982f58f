"""Unit tests for the reactive blacklist, telemetry feed and DNSBL policy."""

import pytest

from repro.blacklist.dnsbl import ReactiveBlacklist
from repro.blacklist.feed import TelemetryFeed
from repro.blacklist.policy import DNSBL_REJECT_CODE, DNSBLPolicy
from repro.net.address import IPv4Address
from repro.sim.clock import Clock
from repro.sim.events import EventScheduler
from repro.sim.rng import RandomStream

BOT = IPv4Address.parse("198.51.100.66")
OTHER = IPv4Address.parse("198.51.100.67")


class TestReactiveBlacklist:
    def test_unknown_address_not_listed(self):
        blacklist = ReactiveBlacklist(Clock())
        assert not blacklist.is_listed(BOT)
        assert blacklist.listed_at(BOT) is None

    def test_listing_requires_threshold(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=3, processing_delay=0.0
        )
        blacklist.report(BOT)
        blacklist.report(BOT)
        assert not blacklist.is_listed(BOT)
        blacklist.report(BOT)
        assert blacklist.is_listed(BOT)

    def test_processing_delay_defers_listing(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=1, processing_delay=100.0
        )
        blacklist.report(BOT)
        assert not blacklist.is_listed(BOT)
        clock.advance_by(99)
        assert not blacklist.is_listed(BOT)
        clock.advance_by(1)
        assert blacklist.is_listed(BOT)
        assert blacklist.listed_at(BOT) == 100.0

    def test_auto_delisting_after_quiet_period(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock,
            detection_threshold=1,
            processing_delay=0.0,
            listing_lifetime=1000.0,
        )
        blacklist.report(BOT)
        clock.advance_by(500)
        assert blacklist.is_listed(BOT)
        clock.advance_by(600)
        assert not blacklist.is_listed(BOT)

    def test_new_sightings_refresh_listing(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock,
            detection_threshold=1,
            processing_delay=0.0,
            listing_lifetime=1000.0,
        )
        blacklist.report(BOT)
        clock.advance_by(900)
        blacklist.report(BOT)
        clock.advance_by(900)
        assert blacklist.is_listed(BOT)

    def test_addresses_independent(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=1, processing_delay=0.0
        )
        blacklist.report(BOT)
        assert blacklist.is_listed(BOT)
        assert not blacklist.is_listed(OTHER)
        assert blacklist.listed_count == 1

    def test_query_and_hit_counters(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=1, processing_delay=0.0
        )
        blacklist.is_listed(BOT)
        blacklist.report(BOT)
        blacklist.is_listed(BOT)
        assert blacklist.queries == 2
        assert blacklist.hits == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactiveBlacklist(Clock(), detection_threshold=0)
        with pytest.raises(ValueError):
            ReactiveBlacklist(Clock(), processing_delay=-1)
        with pytest.raises(ValueError):
            ReactiveBlacklist(Clock(), listing_lifetime=0)


class TestTelemetryFeed:
    def _build(self, rate=60.0, threshold=5):
        scheduler = EventScheduler(Clock())
        blacklist = ReactiveBlacklist(
            scheduler.clock, detection_threshold=threshold, processing_delay=0.0
        )
        feed = TelemetryFeed(
            scheduler, blacklist, RandomStream(1, "feed"), reports_per_hour=rate
        )
        return scheduler, blacklist, feed

    def test_armed_address_eventually_listed(self):
        scheduler, blacklist, feed = self._build(rate=60.0, threshold=5)
        feed.arm(BOT)
        scheduler.run(until=3600.0)
        assert blacklist.is_listed(BOT)
        assert feed.reports_delivered >= 5

    def test_higher_rate_lists_faster(self):
        listings = {}
        for rate in (10.0, 600.0):
            scheduler, blacklist, feed = self._build(rate=rate, threshold=5)
            feed.arm(BOT)
            scheduler.run(until=7200.0)
            listings[rate] = blacklist.listed_at(BOT)
        assert listings[600.0] < listings[10.0]

    def test_arm_idempotent(self):
        scheduler, _, feed = self._build()
        feed.arm(BOT)
        feed.arm(BOT)
        assert feed.armed_addresses == 1
        assert scheduler.pending == 1

    def test_each_armed_address_keeps_one_report_queued(self):
        # A delivery schedules the next report: reporting never stops and
        # never piles up, so the queue holds one event per armed address.
        scheduler, blacklist, feed = self._build(rate=600.0, threshold=1000)
        feed.arm(BOT)
        feed.arm(OTHER)
        for horizon in (60.0, 600.0, 3600.0):
            scheduler.run(until=horizon)
            assert scheduler.pending == 2
        # report() returns the state; its own sighting is the extra one.
        sightings = [blacklist.report(a).sightings - 1 for a in (BOT, OTHER)]
        assert min(sightings) > 0
        assert sum(sightings) == feed.reports_delivered == scheduler.events_processed

    def test_rate_validation(self):
        scheduler = EventScheduler(Clock())
        blacklist = ReactiveBlacklist(scheduler.clock)
        with pytest.raises(ValueError):
            TelemetryFeed(scheduler, blacklist, RandomStream(1), reports_per_hour=0)


class TestDNSBLPolicy:
    def test_unlisted_client_accepted_and_not_reported(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=100, processing_delay=0.0
        )
        policy = DNSBLPolicy(blacklist)
        decision = policy.on_rcpt_to(BOT, "s@x.example", "r@y.example")
        assert decision.accept
        # Only the telemetry feed reports: this is the first sighting.
        assert blacklist.report(BOT).sightings == 1

    def test_listed_client_rejected_permanently(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=1, processing_delay=0.0
        )
        blacklist.report(BOT)
        policy = DNSBLPolicy(blacklist)
        decision = policy.on_rcpt_to(BOT, "s@x.example", "r@y.example")
        assert not decision.accept
        assert decision.reply.code == DNSBL_REJECT_CODE
        assert decision.reply.is_permanent_failure
        assert policy.rejections == 1

    def test_events_logged(self):
        clock = Clock()
        blacklist = ReactiveBlacklist(
            clock, detection_threshold=1, processing_delay=0.0
        )
        policy = DNSBLPolicy(blacklist)
        policy.on_rcpt_to(BOT, "s@x.example", "r@y.example")
        blacklist.report(BOT)
        policy.on_rcpt_to(BOT, "s@x.example", "r@y.example")
        assert [e.listed for e in policy.events] == [False, True]
