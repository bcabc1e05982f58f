"""Unit tests for the pluggable triplet-store backends."""

import sqlite3

import pytest

from repro.greylist.backends import (
    BACKEND_NAMES,
    MemoryBackend,
    SQLiteBackend,
    TripletBackend,
    create_backend,
    entry_is_expired,
)
from repro.greylist.store import TripletEntry
from repro.greylist.triplet import Triplet
from repro.net.address import IPv4Address


def triplet(i=0, sender=None):
    return Triplet(
        IPv4Address.parse(f"198.51.100.{i % 250 + 1}"),
        sender or f"s{i}@x.example",
        "r@y.example",
    )


def entry(i=0, first=0.0, last=None, attempts=1, passed=False,
          passed_at=None, sender=None):
    return TripletEntry(
        triplet=triplet(i, sender=sender),
        first_seen=first,
        last_seen=last if last is not None else first,
        attempts=attempts,
        passed=passed,
        passed_at=passed_at,
    )


@pytest.fixture(
    params=BACKEND_NAMES
    + tuple(f"{name}-volatile" for name in BACKEND_NAMES if name != "memory")
)
def backend(request, tmp_path):
    """One instance of each backend, file-backed where that is possible,
    and each durable backend again with no path (SQLite ``:memory:``, a
    private shm segment), the form the store benches time."""
    name, _, volatile = request.param.partition("-")
    path = None
    if name != "memory" and not volatile:
        path = tmp_path / f"store.{name}"
    built = create_backend(name, path)
    yield built
    built.close()


class TestBackendConformance:
    """The interface contract, identically for every backend and form."""

    def test_get_missing_returns_none(self, backend):
        assert backend.get(triplet()) is None
        assert len(backend) == 0

    def test_put_get_roundtrip(self, backend):
        original = entry(0, first=10.0, last=250.5, attempts=3)
        backend.put(original)
        fetched = backend.get(triplet(0))
        assert fetched == original
        assert len(backend) == 1

    def test_floats_roundtrip_exactly(self, backend):
        # Awkward, non-representable decimals must survive bit-for-bit.
        original = entry(
            0, first=0.1 + 0.2, last=86400.000000001, passed=True,
            passed_at=1e-9,
        )
        backend.put(original)
        fetched = backend.get(triplet(0))
        assert fetched.first_seen == original.first_seen
        assert fetched.last_seen == original.last_seen
        assert fetched.passed_at == original.passed_at

    def test_put_updates_in_place(self, backend):
        backend.put(entry(0))
        backend.put(entry(0, first=0.0, last=500.0, attempts=2))
        fetched = backend.get(triplet(0))
        assert fetched.attempts == 2
        assert fetched.last_seen == 500.0
        assert len(backend) == 1

    def test_delete(self, backend):
        backend.put(entry(0))
        assert backend.delete(triplet(0)) is True
        assert backend.get(triplet(0)) is None
        assert backend.delete(triplet(0)) is False
        assert len(backend) == 0

    def test_scan_is_insertion_order(self, backend):
        for i in range(5):
            backend.put(entry(i, first=float(100 - i)))
        seen = [e.triplet for e in backend.scan()]
        assert seen == [triplet(i) for i in range(5)]

    def test_update_keeps_scan_position(self, backend):
        for i in range(3):
            backend.put(entry(i))
        backend.put(entry(1, last=999.0, attempts=7))
        seen = [e.triplet for e in backend.scan()]
        assert seen == [triplet(0), triplet(1), triplet(2)]

    def test_delete_reinsert_moves_to_end(self, backend):
        for i in range(3):
            backend.put(entry(i))
        backend.delete(triplet(0))
        backend.put(entry(0))
        seen = [e.triplet for e in backend.scan()]
        assert seen == [triplet(1), triplet(2), triplet(0)]

    def test_expire_counts_by_class(self, backend):
        backend.put(entry(0, last=0.0))                       # stale grey
        backend.put(entry(1, last=0.0, passed=True, passed_at=0.0))
        backend.put(entry(2, last=90.0))                      # live grey
        unconfirmed, confirmed = backend.expire(
            100.0, retry_window=50.0, whitelist_lifetime=99.0
        )
        assert (unconfirmed, confirmed) == (1, 1)
        assert backend.get(triplet(0)) is None
        assert backend.get(triplet(1)) is None
        assert backend.get(triplet(2)) is not None

    def test_expire_boundary_is_exclusive(self, backend):
        # entry_is_expired uses strict >, so "exactly at the window" lives.
        backend.put(entry(0, last=50.0))
        assert backend.expire(100.0, 50.0, 99.0) == (0, 0)
        assert backend.expire(100.0000001, 50.0, 99.0) == (1, 0)

    def test_mark_passed(self, backend):
        backend.put(entry(0, first=0.0, last=400.0, attempts=2))
        assert backend.mark_passed(triplet(0), 400.0) is True
        fetched = backend.get(triplet(0))
        assert fetched.passed
        assert fetched.passed_at == 400.0

    def test_mark_passed_is_conditional(self, backend):
        assert backend.mark_passed(triplet(0), 1.0) is False
        backend.put(entry(0, passed=True, passed_at=5.0))
        # Already passed: no change, passed_at keeps its original value.
        assert backend.mark_passed(triplet(0), 99.0) is False
        assert backend.get(triplet(0)).passed_at == 5.0

    def test_confirmed_count(self, backend):
        backend.put(entry(0))
        backend.put(entry(1, passed=True, passed_at=1.0))
        backend.put(entry(2, passed=True, passed_at=2.0))
        assert backend.confirmed_count() == 2

    def test_bulk_load(self, backend):
        backend.bulk_load([entry(i) for i in range(10)])
        assert len(backend) == 10
        assert backend.get(triplet(7)) is not None


class TestFactory:
    def test_names_registry(self):
        from repro.greylist.shm import SharedMemoryBackend

        assert BACKEND_NAMES == ("memory", "sqlite", "shm")
        assert isinstance(create_backend("memory"), MemoryBackend)
        assert isinstance(create_backend("sqlite"), SQLiteBackend)
        assert isinstance(create_backend("shm"), SharedMemoryBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown triplet-store"):
            create_backend("berkeleydb")

    def test_all_are_backends(self):
        for name in BACKEND_NAMES:
            assert isinstance(create_backend(name), TripletBackend)


class TestSQLiteBackend:
    def test_survives_reopen(self, tmp_path):
        path = tmp_path / "grey.db"
        first = SQLiteBackend(path)
        first.put(entry(0, first=1.5, last=321.25, attempts=2))
        first.mark_passed(triplet(0), 321.25)
        first.close()
        second = SQLiteBackend(path)
        fetched = second.get(triplet(0))
        assert fetched.passed
        assert fetched.passed_at == 321.25
        assert fetched.attempts == 2
        second.close()

    def test_wal_mode_when_file_backed(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "grey.db")
        backend.put(entry(0))
        backend.flush()
        mode = backend._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        backend.close()

    def test_batched_writes_visible_before_flush(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "grey.db", commit_every=10_000)
        backend.put(entry(0))
        assert backend.get(triplet(0)) is not None
        assert len(backend) == 1
        backend.close()

    def test_unflushed_batch_is_committed_on_close(self, tmp_path):
        path = tmp_path / "grey.db"
        backend = SQLiteBackend(path, commit_every=10_000)
        backend.put(entry(0))
        backend.close()
        conn = sqlite3.connect(str(path))
        count = conn.execute(
            "SELECT COUNT(*) FROM greylisting_tracking"
        ).fetchone()[0]
        conn.close()
        assert count == 1

    def test_writes_commit_in_batches(self, tmp_path):
        # Another connection sees nothing until commit_every mutations
        # have accumulated, then the whole batch at once.
        path = tmp_path / "grey.db"
        backend = SQLiteBackend(path, commit_every=2)
        reader = sqlite3.connect(str(path))

        def committed():
            query = "SELECT COUNT(*) FROM greylisting_tracking"
            return reader.execute(query).fetchone()[0]

        backend.put(entry(0))
        assert committed() == 0
        backend.put(entry(1))
        assert committed() == 2
        reader.close()
        backend.close()

    def test_commit_every_validated(self):
        with pytest.raises(ValueError):
            SQLiteBackend(commit_every=0)

    def test_close_is_idempotent(self):
        backend = SQLiteBackend()
        backend.close()
        backend.close()


class TestExpiryPredicate:
    def test_unconfirmed_uses_retry_window(self):
        e = entry(0, last=0.0)
        assert not entry_is_expired(e, 100.0, 100.0, 1000.0)
        assert entry_is_expired(e, 100.5, 100.0, 1000.0)

    def test_confirmed_uses_whitelist_lifetime(self):
        e = entry(0, last=0.0, passed=True, passed_at=0.0)
        assert not entry_is_expired(e, 500.0, 100.0, 1000.0)
        assert entry_is_expired(e, 1000.5, 100.0, 1000.0)
