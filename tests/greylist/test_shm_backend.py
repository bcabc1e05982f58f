"""Shared-memory backend specifics: layout, degradation, concurrency.

The generic interface contract is covered by the conformance suite in
``test_backends.py`` (parametrized over every backend, shm included) and
the bit-for-bit equivalence suite.  This module tests what only the
shared table has: fixed capacity with spill-on-full, oversize-key
handling, tombstone recycling, seqlock torn-record repair, the
insertion-order contract under recycling, and cross-process contention
through real forked processes (POSIX record locks are per-process, so
in-process "concurrency" would prove nothing).
"""

import multiprocessing
import struct
from multiprocessing import shared_memory

import pytest

from repro.greylist.backends import StoreError
from repro.greylist.shm import (
    DEFAULT_CAPACITY,
    HEADER_SIZE,
    MAX_KEY_BYTES,
    PROBE_WINDOW,
    RECORD_SIZE,
    SharedMemoryBackend,
    _segment_name_for_path,
    _unlink_segment,
)
from repro.greylist.store import TripletEntry
from repro.greylist.triplet import Triplet
from repro.net.address import IPv4Address

DAY = 86400.0
RETRY = 2 * DAY
LIFETIME = 35 * DAY


def triplet(i=0, sender=None):
    return Triplet(
        IPv4Address.parse(f"203.0.{i // 250}.{i % 250 + 1}"),
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


@pytest.fixture
def small():
    """A deliberately tiny table (one probe window) to force pressure."""
    backend = SharedMemoryBackend(capacity=PROBE_WINDOW)
    yield backend
    backend.close()


@pytest.fixture
def table():
    backend = SharedMemoryBackend(capacity=1024)
    yield backend
    backend.close()


class TestLayout:
    def test_capacity_is_fixed_and_readable(self, table):
        assert table.capacity == 1024
        assert table.segment.startswith("psm_")

    def test_record_size_covers_struct(self):
        # 4 spare bytes of slack; a format change that overflows the
        # slot must fail loudly here, not corrupt neighbours silently.
        assert RECORD_SIZE >= struct.calcsize("<IBBBxQQIIdddHH120s120s")
        assert HEADER_SIZE >= struct.calcsize("<8sQQQQQQ")

    def test_default_capacity_sane(self):
        assert DEFAULT_CAPACITY >= PROBE_WINDOW


class TestSpill:
    def test_insert_past_capacity_spills_not_corrupts(self, small):
        for i in range(PROBE_WINDOW * 3):
            small.put(entry(i))
        assert len(small) <= small.capacity
        assert small.spill_count > 0
        # Every stored entry is still intact and readable.
        for stored in small.scan():
            assert stored.attempts == 1

    def test_record_attempt_on_full_table_still_answers(self, small):
        for i in range(PROBE_WINDOW * 3):
            result, expired = small.record_attempt(
                triplet(i), 100.0, RETRY, LIFETIME
            )
            # A spilled attempt is answered from a transient entry: the
            # client sees an ordinary first-contact deferral.
            assert result.attempts == 1
            assert result.first_seen == 100.0
            assert expired is None

    def test_oversize_sender_takes_spill_path(self, table):
        big = "x" * (MAX_KEY_BYTES + 1) + "@y.example"
        oversize = entry(0, sender=big)
        table.put(oversize)
        assert table.get(oversize.triplet) is None
        assert table.delete(oversize.triplet) is False
        assert table.spill_count == 1
        result, expired = table.record_attempt(
            oversize.triplet, 5.0, RETRY, LIFETIME
        )
        assert result.attempts == 1 and expired is None
        assert table.spill_count == 2
        assert len(table) == 0

    def test_max_size_key_is_stored(self, table):
        edge = entry(0, sender="x" * (MAX_KEY_BYTES - 10) + "@y.c")
        assert len(edge.triplet.sender.encode()) <= MAX_KEY_BYTES
        table.put(edge)
        got = table.get(edge.triplet)
        assert got is not None
        assert got.triplet.sender == edge.triplet.sender


class TestTombstones:
    def test_delete_leaves_recyclable_tombstone(self, table):
        table.put(entry(1))
        assert table.delete(triplet(1)) is True
        assert table.tombstone_count == 1
        assert len(table) == 0
        table.put(entry(1))
        assert table.tombstone_count == 0
        assert len(table) == 1

    def test_churn_does_not_consume_small_table(self, small):
        # Insert/delete the same window-full of keys many times over:
        # without recycling this exceeds capacity within two rounds.
        for _ in range(10):
            for i in range(PROBE_WINDOW // 2):
                small.put(entry(i))
            for i in range(PROBE_WINDOW // 2):
                assert small.delete(triplet(i)) is True
        assert len(small) == 0
        assert small.spill_count == 0

    def test_scan_order_survives_recycling(self, table):
        for i in (1, 2, 3):
            table.put(entry(i, first=float(i)))
        table.put(entry(2, first=2.0, attempts=5))  # update keeps position
        assert [e.triplet for e in table.scan()] == [
            triplet(1), triplet(2), triplet(3)
        ]
        table.delete(triplet(1))
        table.put(entry(1, first=9.0))  # delete + re-insert moves to end
        assert [e.triplet for e in table.scan()] == [
            triplet(2), triplet(3), triplet(1)
        ]


class TestSeqlockRepair:
    def _find_slot(self, table, trip):
        """Locate the slot index a live triplet occupies."""
        sender = trip.sender.encode()
        recipient = trip.recipient.encode()
        key_hash = table._hash_key(trip.client.value, sender, recipient)
        home = key_hash % table.capacity
        for step in range(PROBE_WINDOW):
            index = (home + step) % table.capacity
            fields = struct.unpack_from(
                "<IBBBxQQIIdddHH120s120s",
                table._shm.buf,
                HEADER_SIZE + index * RECORD_SIZE,
            )
            if fields[1] == 1 and fields[4] == key_hash:
                return index
        raise AssertionError("triplet not found in table")

    def test_torn_record_is_repaired_to_tombstone(self, table):
        table.put(entry(7))
        index = self._find_slot(table, triplet(7))
        offset = HEADER_SIZE + index * RECORD_SIZE
        # Simulate a writer that died mid-write: odd sequence, forever.
        seq = struct.unpack_from("<I", table._shm.buf, offset)[0]
        struct.pack_into("<I", table._shm.buf, offset, seq | 1)
        # The reader spins out, takes the slot lock, and drops the torn
        # record — the key is simply gone (one extra deferral), reads
        # never hang and never return garbage.
        assert table.get(triplet(7)) is None
        state = struct.unpack_from("<B", table._shm.buf, offset + 4)[0]
        assert state == 2  # tombstone
        final_seq = struct.unpack_from("<I", table._shm.buf, offset)[0]
        assert final_seq % 2 == 0

    def test_even_sequence_untouched_by_reader(self, table):
        table.put(entry(8))
        index = self._find_slot(table, triplet(8))
        offset = HEADER_SIZE + index * RECORD_SIZE
        before = struct.unpack_from("<I", table._shm.buf, offset)[0]
        assert table.get(triplet(8)) is not None
        after = struct.unpack_from("<I", table._shm.buf, offset)[0]
        assert after == before


# ----------------------------------------------------------------------
# Cross-process contention (real processes: fcntl locks are per-process)
# ----------------------------------------------------------------------
def _hammer_attempts(segment, shared_keys, per_process, barrier, out):
    backend = SharedMemoryBackend(segment=segment)
    try:
        barrier.wait()
        for i in range(per_process):
            backend.record_attempt(
                triplet(i % shared_keys), 50.0, RETRY, LIFETIME
            )
        out.put(per_process)
    finally:
        backend.close()


def _mark_some_passed(segment, start, count, barrier, out):
    backend = SharedMemoryBackend(segment=segment)
    try:
        barrier.wait()
        marked = 0
        for i in range(start, start + count):
            backend.record_attempt(triplet(i), 10.0, RETRY, LIFETIME)
            if backend.mark_passed(triplet(i), 20.0):
                marked += 1
        out.put(marked)
    finally:
        backend.close()


def _attempt_after_expiry(segment, keys, barrier, out):
    backend = SharedMemoryBackend(segment=segment)
    try:
        barrier.wait()
        expired = 0
        for i in range(keys):
            _, kind = backend.record_attempt(
                triplet(i), RETRY + 1000.0, RETRY, LIFETIME
            )
            if kind is not None:
                expired += 1
        out.put(expired)
    finally:
        backend.close()


class TestCrossProcessContention:
    WORKERS = 4

    def _run(self, target, args_for):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(self.WORKERS)
        out = ctx.Queue()
        procs = [
            ctx.Process(target=target, args=args_for(w, barrier, out))
            for w in range(self.WORKERS)
        ]
        for proc in procs:
            proc.start()
        results = [out.get(timeout=60) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        return results

    def test_attempt_counters_conserved(self):
        """No lost increments: attempts across the table sum exactly."""
        shared_keys, per_process = 16, 300
        backend = SharedMemoryBackend(capacity=1024)
        try:
            self._run(
                _hammer_attempts,
                lambda w, barrier, out: (
                    backend.segment, shared_keys, per_process, barrier, out
                ),
            )
            total = sum(e.attempts for e in backend.scan())
            assert total == self.WORKERS * per_process
            assert len(backend) == shared_keys
            assert backend.spill_count == 0
        finally:
            backend.close()

    def test_no_lost_passes(self):
        """Every acknowledged mark_passed is visible afterwards."""
        per_process = 50
        backend = SharedMemoryBackend(capacity=1024)
        try:
            marked = self._run(
                _mark_some_passed,
                lambda w, barrier, out: (
                    backend.segment, w * per_process, per_process,
                    barrier, out,
                ),
            )
            assert sum(marked) == self.WORKERS * per_process
            assert backend.confirmed_count() == self.WORKERS * per_process
            for stored in backend.scan():
                assert stored.passed and stored.passed_at == 20.0
        finally:
            backend.close()

    def test_expiry_counted_exactly_once(self):
        """Racing workers never resurrect or double-expire a triplet."""
        keys = 32
        backend = SharedMemoryBackend(capacity=1024)
        try:
            for i in range(keys):
                backend.put(entry(i, first=0.0))
            expired = self._run(
                _attempt_after_expiry,
                lambda w, barrier, out: (backend.segment, keys, barrier, out),
            )
            # Exactly one worker per key observed the expiry; the rest
            # saw the freshly re-created entry.
            assert sum(expired) == keys
            for stored in backend.scan():
                # No resurrection: the old incarnation is gone for good.
                assert stored.first_seen == RETRY + 1000.0
                assert not stored.passed
            assert len(backend) == keys
        finally:
            backend.close()


class TestSentinel:
    def test_unwritable_sentinel_leaks_no_segment(self, tmp_path):
        # A named segment outlives its process, so a failed open must not
        # have created one.
        path = tmp_path / "missing" / "grey.shm"
        with pytest.raises(StoreError, match="No such file or directory"):
            SharedMemoryBackend(path)
        name = _segment_name_for_path(path)
        try:
            leaked = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            return
        leaked.close()
        _unlink_segment(name)
        pytest.fail(f"segment {name} outlived the failed open")
