"""Unit tests for greylist triplets and the triplet store."""

import pytest

from repro.greylist.store import DAY, TripletStore
from repro.greylist.triplet import Triplet
from repro.net.address import IPv4Address
from repro.sim.clock import Clock


def addr(text):
    return IPv4Address.parse(text)


def triplet(ip="198.51.100.7", sender="a@x.net", recipient="b@y.net"):
    return Triplet(addr(ip), sender, recipient)


class TestTriplet:
    def test_equality_is_structural(self):
        assert triplet() == triplet()
        assert triplet(ip="198.51.100.8") != triplet()
        assert triplet(sender="c@x.net") != triplet()

    def test_addresses_canonicalized(self):
        t = Triplet(addr("1.2.3.4"), "A@X.NET", "B@Y.NET")
        assert t.sender == "A@x.net"
        assert t.recipient == "B@y.net"

    def test_network_key_coarsens_client(self):
        a = triplet(ip="198.51.100.7").network_key()
        b = triplet(ip="198.51.100.200").network_key()
        assert a == b
        assert str(a.client) == "198.51.100.0"

    def test_network_key_distinguishes_networks(self):
        a = triplet(ip="198.51.100.7").network_key()
        b = triplet(ip="198.51.101.7").network_key()
        assert a != b

    def test_hashable(self):
        assert len({triplet(), triplet()}) == 1


class TestTripletStore:
    def test_observe_creates_entry(self):
        store = TripletStore(Clock())
        entry = store.observe(triplet())
        assert entry.attempts == 1
        assert not entry.passed
        assert store.size == 1

    def test_observe_increments_attempts(self):
        clock = Clock()
        store = TripletStore(clock)
        store.observe(triplet())
        clock.advance_by(100)
        entry = store.observe(triplet())
        assert entry.attempts == 2
        assert entry.first_seen == 0.0
        assert entry.last_seen == 100.0

    def test_mark_passed(self):
        clock = Clock()
        store = TripletStore(clock)
        store.observe(triplet())
        clock.advance_by(400)
        store.mark_passed(triplet())
        entry = store.lookup(triplet())
        assert entry.passed
        assert entry.passed_at == 400.0
        assert store.confirmed == 1

    def test_mark_passed_unknown_raises(self):
        store = TripletStore(Clock())
        with pytest.raises(KeyError):
            store.mark_passed(triplet())

    def test_unconfirmed_expiry(self):
        clock = Clock()
        store = TripletStore(clock, retry_window=2 * DAY)
        store.observe(triplet())
        clock.advance_by(2 * DAY + 1)
        assert store.lookup(triplet()) is None
        assert store.expired_unconfirmed == 1
        # A new observation starts from scratch.
        entry = store.observe(triplet())
        assert entry.attempts == 1

    def test_confirmed_entries_live_longer(self):
        clock = Clock()
        store = TripletStore(clock, retry_window=2 * DAY, whitelist_lifetime=35 * DAY)
        store.observe(triplet())
        store.mark_passed(triplet())
        clock.advance_by(10 * DAY)
        assert store.lookup(triplet()) is not None
        clock.advance_by(26 * DAY)
        assert store.lookup(triplet()) is None
        assert store.expired_confirmed == 1

    @pytest.mark.parametrize("backend_name", ["memory", "sqlite", "shm"])
    def test_retry_after_lapsed_confirmation_starts_over(self, backend_name):
        from repro.greylist.backends import create_backend

        clock = Clock()
        store = TripletStore(
            clock,
            whitelist_lifetime=35 * DAY,
            backend=create_backend(backend_name),
        )
        store.observe(triplet())
        store.mark_passed(triplet())
        clock.advance_by(35 * DAY + 1)
        # The attempt itself finds the confirmation lapsed: the triplet is
        # greylisted afresh and the expiry counted as a confirmed one.
        entry = store.observe(triplet())
        assert (entry.attempts, entry.passed) == (1, False)
        assert entry.first_seen == 35 * DAY + 1
        assert (store.expired_confirmed, store.expired_unconfirmed) == (1, 0)
        assert store.confirmed == 0
        store.close()

    def test_activity_refreshes_confirmed_lifetime(self):
        clock = Clock()
        store = TripletStore(clock, whitelist_lifetime=35 * DAY)
        store.observe(triplet())
        store.mark_passed(triplet())
        clock.advance_by(30 * DAY)
        store.observe(triplet())  # reuse refreshes last_seen
        clock.advance_by(30 * DAY)
        assert store.lookup(triplet()) is not None

    def test_sweep_drops_stale(self):
        clock = Clock()
        store = TripletStore(clock, retry_window=DAY)
        store.observe(triplet())
        store.observe(triplet(sender="other@x.net"))
        clock.advance_by(DAY + 1)
        removed = store.sweep()
        assert removed == 2
        assert store.size == 0

    def test_contains(self):
        store = TripletStore(Clock())
        assert triplet() not in store
        store.observe(triplet())
        assert triplet() in store

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            TripletStore(Clock(), retry_window=0)
        with pytest.raises(ValueError):
            TripletStore(Clock(), whitelist_lifetime=-1)

    def test_mark_passed_does_not_resurrect_expired_triplet(self):
        # Regression: mark_passed used to read the raw entry dict, so an
        # expired-but-unswept triplet could be confirmed past its retry
        # window.  It must expire (and count) like any other lookup.
        clock = Clock()
        store = TripletStore(clock, retry_window=2 * DAY)
        store.observe(triplet())
        clock.advance_by(2 * DAY + 1)
        with pytest.raises(KeyError):
            store.mark_passed(triplet())
        assert store.expired_unconfirmed == 1
        assert store.confirmed == 0
        assert store.size == 0

    def test_works_on_every_backend(self):
        from repro.greylist.backends import create_backend

        for name in ("memory", "sqlite", "shm"):
            clock = Clock()
            store = TripletStore(clock, backend=create_backend(name))
            store.observe(triplet())
            clock.advance_by(400)
            store.observe(triplet())
            store.mark_passed(triplet())
            assert store.confirmed == 1, name
            assert name in repr(store)
