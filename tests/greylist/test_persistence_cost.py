"""Unit tests for triplet-database persistence and cost accounting."""

import pytest

from repro.greylist.cost import measure_cost
from repro.greylist.persistence import (
    FORMAT_HEADER,
    PersistenceError,
    dump_store,
    load_store,
    snapshot_size_bytes,
)
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import DAY, TripletStore
from repro.greylist.triplet import Triplet
from repro.greylist.whitelist import Whitelist
from repro.net.address import IPv4Address
from repro.sim.clock import Clock

CLIENT = IPv4Address.parse("198.51.100.7")


def triplet(i=0):
    return Triplet(CLIENT, f"s{i}@x.example", "r@y.example")


class TestPersistence:
    def _populated_store(self):
        clock = Clock()
        store = TripletStore(clock)
        store.observe(triplet(0))
        clock.advance_by(400)
        store.observe(triplet(0))
        store.mark_passed(triplet(0))
        store.observe(triplet(1))
        return clock, store

    def test_dump_load_roundtrip(self):
        clock, store = self._populated_store()
        text = dump_store(store)
        assert text.startswith(FORMAT_HEADER)
        restored = load_store(text, clock)
        assert restored.size == 2
        entry = restored.lookup(triplet(0))
        assert entry.passed
        assert entry.passed_at == 400.0
        assert entry.attempts == 2
        unpassed = restored.lookup(triplet(1))
        assert not unpassed.passed

    def test_restored_store_continues_policy(self):
        # Restart semantics: a passed triplet must stay passed.
        clock, store = self._populated_store()
        restored = load_store(dump_store(store), clock)
        policy = GreylistPolicy(clock=clock, delay=300, store=restored)
        assert policy.on_rcpt_to(CLIENT, "s0@x.example", "r@y.example").accept
        assert not policy.on_rcpt_to(CLIENT, "s9@x.example", "r@y.example").accept

    def test_expired_entries_dropped_on_load(self):
        clock, store = self._populated_store()
        text = dump_store(store)
        late_clock = Clock(start=clock.now + 3 * DAY)
        restored = load_store(text, late_clock)
        # The unconfirmed triplet(1) is past its retry window; the passed
        # one is still inside the whitelist lifetime.
        assert restored.lookup(triplet(1)) is None
        assert restored.lookup(triplet(0)) is not None

    def test_expired_entries_counted_on_load(self):
        # Regression: load_store used to drop expired entries silently, so
        # a loaded store's expiry counters drifted from a live replay's.
        clock, store = self._populated_store()
        text = dump_store(store)
        late_clock = Clock(start=clock.now + 40 * DAY)  # expires both
        restored = load_store(text, late_clock)
        assert restored.size == 0
        assert restored.expired_unconfirmed == 1
        assert restored.expired_confirmed == 1

    def test_load_malformed_line_names_line_number(self):
        text = FORMAT_HEADER + "\nok-is-not-enough\nonly three fields\n"
        with pytest.raises(PersistenceError, match="line 2"):
            load_store(text, Clock())

    def test_header_required(self):
        with pytest.raises(PersistenceError):
            load_store("not a snapshot", Clock())

    def test_version_header_mismatch_rejected(self):
        text = "# repro-greylist-db v2\n"
        with pytest.raises(PersistenceError):
            load_store(text, Clock())

    def test_none_windows_fall_back_to_store_defaults(self):
        clock, store = self._populated_store()
        restored = load_store(dump_store(store), clock)
        defaults = TripletStore(clock)
        assert restored.retry_window == defaults.retry_window
        assert restored.whitelist_lifetime == defaults.whitelist_lifetime

    def test_explicit_windows_respected(self):
        clock, store = self._populated_store()
        restored = load_store(
            dump_store(store),
            clock,
            retry_window=100.0,
            whitelist_lifetime=500.0,
        )
        assert restored.retry_window == 100.0
        assert restored.whitelist_lifetime == 500.0

    def test_malformed_line_rejected(self):
        text = FORMAT_HEADER + "\nonly three fields here\n"
        with pytest.raises(PersistenceError):
            load_store(text, Clock())

    def test_inconsistent_entry_rejected(self):
        text = (
            FORMAT_HEADER
            + "\n198.51.100.7 s@x.example r@y.example 100.0 50.0 1 -\n"
        )
        with pytest.raises(PersistenceError):
            load_store(text, Clock())

    def test_sweep_before_dump_compacts_the_snapshot(self):
        clock, store = self._populated_store()
        clock.advance_by(3 * DAY)  # expires the unconfirmed entry
        assert "s1@x.example" in dump_store(store)
        assert store.sweep() == 1
        text = dump_store(store)
        _, *lines = text.splitlines()  # the header, then one line per entry
        assert len(lines) == 1 and "s0@x.example" in lines[0]
        restored = load_store(text, clock)
        assert restored.size == 1
        assert restored.expired_unconfirmed == 0

    def test_snapshot_size_grows_with_entries(self):
        clock = Clock()
        store = TripletStore(clock)
        empty = snapshot_size_bytes(store)
        for i in range(10):
            store.observe(triplet(i))
        assert snapshot_size_bytes(store) > empty


class TestCostAccounting:
    def test_cost_of_simple_run(self):
        clock = Clock()
        policy = GreylistPolicy(clock=clock, delay=300)
        policy.on_rcpt_to(CLIENT, "s@x.example", "r@y.example")   # defer
        clock.advance_by(100)
        policy.on_rcpt_to(CLIENT, "s@x.example", "r@y.example")   # defer
        clock.advance_by(300)
        policy.on_rcpt_to(CLIENT, "s@x.example", "r@y.example")   # pass
        report = measure_cost(policy)
        assert report.decisions == 3
        assert report.deferrals == 2
        assert report.passes == 1
        assert report.extra_connections == 2
        assert report.extra_connections_per_delivery == 2.0
        assert report.extra_bytes == 2 * 350 + 250
        assert report.db_entries == 1
        assert report.db_bytes > 0

    def test_whitelist_hits_cost_nothing_extra(self):
        clock = Clock()
        whitelist = Whitelist(["x.example"])
        policy = GreylistPolicy(clock=clock, delay=300, whitelist=whitelist)
        policy.on_rcpt_to(CLIENT, "s@x.example", "r@y.example")
        report = measure_cost(policy)
        assert report.whitelist_hits == 1
        assert report.deferrals == 0
        assert report.extra_bytes == 0
        assert report.db_entries == 0

    def test_zero_passes_cost_ratio(self):
        clock = Clock()
        policy = GreylistPolicy(clock=clock, delay=300)
        policy.on_rcpt_to(CLIENT, "s@x.example", "r@y.example")
        report = measure_cost(policy)
        assert report.extra_connections_per_delivery == 1.0
