"""Shared-memory triplet backend for prefork multi-worker serving.

A fixed-capacity open-addressing hash table of packed triplet records in
one ``multiprocessing.shared_memory`` segment, so N policy workers (and
a supervising master) share a single greylist database with no broker
process — the missing piece ROADMAP item 2 left open ("a shared-memory
or mmap backend for multi-worker serving").

Layout
------
``[64-byte header][capacity x 304-byte records]``.  The header carries a
magic/version tag, the capacity, a monotonically increasing *order*
counter (scan order — see below) and live/tombstone/spill statistics.
Each record packs the full triplet key (client as a u32, sender and
recipient as length-prefixed UTF-8 up to 120 bytes each), a 64-bit
BLAKE2b key hash, the entry state (first/last seen, attempts, passed,
passed_at) and a per-record *sequence counter* for torn-read detection.

Concurrency
-----------
Two mechanisms, layered:

* **Writers** hold an ``fcntl.lockf`` byte-range lock over the *probe
  window* of the key's home bucket (byte ``1 + i`` of a sidecar lock
  file stands for bucket ``i``; byte 0 is the header lock).  Any two
  writers whose probe windows overlap therefore serialize, which makes
  every compound operation (:meth:`record_attempt`, :meth:`mark_passed`,
  :meth:`delete`) atomic across processes.  A window that wraps past the
  end of the table locks its two ranges in ascending byte order, so all
  lockers acquire ranges in one global order — no deadlock.  The header
  lock is only ever taken *while already holding* a window lock (or
  alone), never the other way around.
* **Readers** are lock-free: each record is a seqlock.  Writers bump the
  sequence to odd, mutate, bump back to even; readers re-read the
  sequence around a copy and retry on a torn snapshot.  A reader that
  observes an odd sequence for too long (a writer died mid-write) takes
  the slot's byte lock and repairs the slot to a tombstone — one lost
  in-flight record means one extra greylist deferral, never a corrupt
  decision.

POSIX record locks are per *process*: two backend instances inside one
process do not exclude each other (and closing any descriptor on the
lock file drops that process's locks).  One instance per process is the
intended topology — the prefork workers each attach exactly once; the
contention tests spawn real processes.

Scan order
----------
``scan()`` must yield insertion order (update keeps position, delete +
re-insert moves to the end) to stay bit-for-bit with ``MemoryBackend``
snapshots.  Slot position cannot encode that under recycling, so every
insert stamps the record with the header's order counter and ``scan``
sorts by it; in-place updates keep their stamp, expiry-replacement
inside :meth:`record_attempt` takes a fresh one (= delete + re-insert).

Degradation
-----------
The table never grows.  An insert that finds neither its key nor a free
slot within the probe window *spills*: the attempt is answered from a
transient entry (the client sees an ordinary greylist deferral) and the
header's spill counter increments — fail-safe deferral, not corruption.
Oversize keys (sender or recipient beyond 120 UTF-8 bytes) take the
same path.  Deletes leave tombstones that inserts recycle in place, so
churn does not consume the table.

Lifecycle
---------
``path=None`` creates a private, auto-named segment destroyed on
:meth:`close` (the ``:memory:`` analogue).  A ``path`` names a sentinel
file holding the segment name: creating writes it (before the segment),
reopening the same path re-attaches to the live segment — state survives
backend close and reopen, the durable-restart contract the equivalence
suite checks.  A file holding anything else raises ``StoreError``.
Segments created without ``persist=True`` are removed at process exit.
Workers attach to an existing segment directly with ``segment=<name>``.
Attachers must not let Python's resource tracker "clean up" the shared
segment when they exit (CPython registers attachments too), so every
instance unregisters itself and cleanup is explicit: the creator's
close / exit finalizer, or :meth:`unlink`.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import re
import struct
import tempfile
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory, util as mp_util
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..net.address import IPv4Address
from .backends import TripletBackend, cannot_open, timestamps_expired
from .store import TripletEntry
from .triplet import Triplet

#: Slots probed past the home bucket before an insert spills.
PROBE_WINDOW = 64

#: Longest sender/recipient the fixed record holds (UTF-8 bytes).
MAX_KEY_BYTES = 120

#: Default table capacity (records); ~4.8 MiB of /dev/shm.
DEFAULT_CAPACITY = 16384

#: Seqlock retries before a reader assumes the writer died mid-write.
_SEQLOCK_SPINS = 1024

_MAGIC = b"RGSHM01\0"
_HEADER = struct.Struct("<8sQQQQQQ")  # magic, capacity, order, live,
#                                       tombstones, spilled, reserved
HEADER_SIZE = 64

# seq u32 | state u8 | passed u8 | has_passed_at u8 | pad | key_hash u64
# | order u64 | client u32 | attempts u32 | first_seen f64 | last_seen
# f64 | passed_at f64 | sender_len u16 | recipient_len u16 | sender
# 120s | recipient 120s
_RECORD = struct.Struct("<IBBBxQQIIdddHH120s120s")
RECORD_SIZE = 304  # _RECORD.size (300) rounded up; 4 spare bytes
_SEQ = struct.Struct("<I")

_EMPTY, _LIVE, _TOMBSTONE = 0, 1, 2


#: What a sentinel file holds: a name :func:`_segment_name_for_path` made.
_SENTINEL = re.compile(r"rgshm-[0-9a-f]{12}")


def _segment_name_for_path(path: Union[str, Path]) -> str:
    digest = hashlib.blake2b(
        str(Path(path).resolve()).encode("utf-8"), digest_size=6
    ).hexdigest()
    return f"rgshm-{digest}"


def _lock_file_for_segment(segment: str) -> str:
    return os.path.join(tempfile.gettempdir(), f"{segment}.lock")


def _detach_from_tracker(shm: shared_memory.SharedMemory) -> None:
    """Undo CPython's automatic resource-tracker registration.

    Python 3.11 registers *every* ``SharedMemory`` (attachments
    included) with the per-process resource tracker, which unlinks the
    segment when that process exits — the first worker to finish would
    destroy the table under everyone else.  Ownership here is explicit
    instead: the creator's close / exit-finalizer path, or
    :meth:`unlink`.
    """
    resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]


def _unlink_segment(segment: str) -> None:
    """Best-effort removal of a named segment (idempotent)."""
    try:
        stale = shared_memory.SharedMemory(name=segment)
    except FileNotFoundError:
        pass
    else:
        stale.close()
        stale.unlink()  # also unregisters the attach-side tracker entry
    # The sidecar lockfile goes even when the segment is already gone:
    # a late attacher's O_CREAT can resurrect it after the creator's
    # unlink, and a second reap pass must still sweep it up.
    try:
        os.unlink(_lock_file_for_segment(segment))
    except FileNotFoundError:
        pass


def _reap_segment_at_exit(segment: str, owner_pid: int) -> None:
    """Process-exit hook destroying a segment its creator left behind.

    Registered through ``multiprocessing.util.Finalize`` rather than
    ``atexit``: experiment shards run inside multiprocessing workers,
    which exit through ``os._exit`` and never run plain atexit hooks —
    but they *do* run multiprocessing's ``_exit_function``.  Forked
    children inherit the finalizer registry, hence the pid guard: only
    the creating process may destroy the segment.
    """
    if os.getpid() != owner_pid:
        return
    _unlink_segment(segment)


class SharedMemoryBackend(TripletBackend):
    """Cross-process triplet table in one shared-memory segment.

    Parameters
    ----------
    path:
        Sentinel-file location for a reattachable table (``None`` for a
        private table destroyed on close).  The sentinel stores the
        generated segment name; reopening the same path re-attaches.
    capacity:
        Fixed record count (creation only; attaching reads it from the
        segment header).
    segment:
        Attach directly to an existing segment by name — the prefork
        workers' path.  Mutually exclusive with ``path``.
    persist:
        Creator only: skip the process-exit cleanup hook, leaving the
        segment for other processes (the serving master sets this when
        the operator names a ``--store-path``).
    """

    name = "shm"

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        capacity: Optional[int] = None,
        *,
        segment: Optional[str] = None,
        persist: bool = False,
    ) -> None:
        if path is not None and segment is not None:
            raise ValueError("path and segment are mutually exclusive")
        if capacity is not None and capacity < PROBE_WINDOW:
            raise ValueError(f"capacity must be >= {PROBE_WINDOW}")
        self.path = Path(path) if path is not None else None
        self._owner = False
        self._owner_pid = os.getpid()
        self._persist = persist
        self._closed = False
        self._finalizer: Optional[mp_util.Finalize] = None

        if segment is not None:
            self._shm = self._attach(segment)
        elif self.path is not None and self.path.exists():
            try:
                stored = self.path.read_text(encoding="utf-8", errors="replace").strip()
            except OSError as exc:
                raise cannot_open(self.path, exc) from exc
            if not _SENTINEL.fullmatch(stored):
                raise cannot_open(self.path, "not a shm sentinel file")
            try:
                self._shm = self._attach(stored)
            except FileNotFoundError:
                # The segment died with the machine (tmpfs) but the
                # sentinel survived on disk: start a fresh, empty table
                # — the same semantics as a deleted database file.
                self._shm = self._create(stored, capacity)
        else:
            name: Optional[str] = None
            if self.path is not None:
                # Sentinel first: a path that cannot be written then
                # fails before there is a segment to leak.
                name = _segment_name_for_path(self.path)
                try:
                    self.path.write_text(name + "\n", encoding="utf-8")
                except OSError as exc:
                    raise cannot_open(self.path, exc) from exc
            self._shm = self._create(name, capacity)

        self.segment = self._shm.name
        self.capacity = self._read_capacity()
        self._lock_path = _lock_file_for_segment(self.segment)
        self._lock_fd = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o600)
        if self._owner and not self._persist:
            self._finalizer = mp_util.Finalize(
                None,
                _reap_segment_at_exit,
                args=(self.segment, self._owner_pid),
                exitpriority=10,
            )

    # ------------------------------------------------------------------
    # Segment lifecycle
    # ------------------------------------------------------------------
    def _create(
        self, name: Optional[str], capacity: Optional[int]
    ) -> shared_memory.SharedMemory:
        cap = capacity if capacity is not None else DEFAULT_CAPACITY
        size = HEADER_SIZE + cap * RECORD_SIZE
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        except FileExistsError:
            # A same-named segment with no sentinel pointing at it is a
            # leftover from a crashed run: the sentinel is the source of
            # truth, so clear the stale segment and retry once.
            assert name is not None
            _unlink_segment(name)
            shm = shared_memory.SharedMemory(name=name, create=True, size=size)
        _detach_from_tracker(shm)
        _HEADER.pack_into(shm.buf, 0, _MAGIC, cap, 0, 0, 0, 0, 0)
        self._owner = True
        return shm

    def _attach(self, name: str) -> shared_memory.SharedMemory:
        shm = shared_memory.SharedMemory(name=name)
        _detach_from_tracker(shm)
        magic = bytes(shm.buf[:8])
        if magic != _MAGIC:
            shm.close()
            raise RuntimeError(
                f"shared segment {name!r} is not a triplet table "
                f"(magic {magic!r})"
            )
        return shm

    def _read_capacity(self) -> int:
        return int(_HEADER.unpack_from(self._shm.buf, 0)[1])

    def flush(self) -> None:
        """Shared memory is always current; nothing to flush."""

    def close(self) -> None:
        """Detach from the segment (destroying it for private tables)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        os.close(self._lock_fd)
        if self._owner and self.path is None and os.getpid() == self._owner_pid:
            _unlink_segment(self.segment)
        # The exit finalizer (when registered) deliberately stays: a
        # closed path-backed table must remain reattachable for the rest
        # of the process (the restart contract) yet still be reaped at
        # exit.

    def unlink(self) -> None:
        """Destroy the segment, its lock file and the sentinel file."""
        self.close()
        _unlink_segment(self.segment)
        if self._finalizer is not None:
            self._finalizer.cancel()
            self._finalizer = None
        if self.path is not None:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # Locking (fcntl byte ranges on the sidecar lock file)
    # ------------------------------------------------------------------
    def _lockf(self, cmd: int, start: int, length: int) -> None:
        # Sub-millisecond critical sections (a handful of struct packs)
        # striped across the table: serving-loop stalls are bounded and
        # tiny, the same trade the SQLite backend's WAL commit makes.
        fcntl.lockf(self._lock_fd, cmd, length, start, os.SEEK_SET)  # repro: noqa ASY001 - striped microsecond record lock; see module docstring

    def _window_ranges(self, home: int) -> List[Tuple[int, int]]:
        """Byte ranges covering the probe window of ``home`` (ascending)."""
        end = home + PROBE_WINDOW
        if end <= self.capacity:
            return [(1 + home, PROBE_WINDOW)]
        wrapped = end - self.capacity
        # Ascending start order is the global acquisition order that
        # keeps overlapping lockers deadlock-free.
        return [(1, wrapped), (1 + home, self.capacity - home)]

    @contextmanager
    def _window_lock(self, home: int) -> Iterator[None]:
        ranges = self._window_ranges(home)
        acquired = 0
        try:
            for start, length in ranges:
                self._lockf(fcntl.LOCK_EX, start, length)
                acquired += 1
            yield
        finally:
            for start, length in ranges[:acquired]:
                self._lockf(fcntl.LOCK_UN, start, length)

    @contextmanager
    def _slot_lock(self, index: int) -> Iterator[None]:
        """Lock one bucket byte — conflicts with any window holding it."""
        self._lockf(fcntl.LOCK_EX, 1 + index, 1)
        try:
            yield
        finally:
            self._lockf(fcntl.LOCK_UN, 1 + index, 1)

    @contextmanager
    def _header_lock(self) -> Iterator[None]:
        self._lockf(fcntl.LOCK_EX, 0, 1)
        try:
            yield
        finally:
            self._lockf(fcntl.LOCK_UN, 0, 1)

    def _header_read(self) -> Tuple[int, int, int, int]:
        """(order, live, tombstones, spilled) under the header lock."""
        with self._header_lock():
            fields = _HEADER.unpack_from(self._shm.buf, 0)
        return int(fields[2]), int(fields[3]), int(fields[4]), int(fields[5])

    def _header_update(
        self,
        *,
        take_order: bool = False,
        live: int = 0,
        tombstones: int = 0,
        spilled: int = 0,
    ) -> int:
        """Apply count deltas; returns the allocated order stamp (or 0)."""
        with self._header_lock():
            magic, cap, order, n_live, n_tomb, n_spill, _ = _HEADER.unpack_from(
                self._shm.buf, 0
            )
            stamp = 0
            if take_order:
                order += 1
                stamp = order
            _HEADER.pack_into(
                self._shm.buf,
                0,
                magic,
                cap,
                order,
                n_live + live,
                n_tomb + tombstones,
                n_spill + spilled,
                0,
            )
        return stamp

    # ------------------------------------------------------------------
    # Record access
    # ------------------------------------------------------------------
    def _offset(self, index: int) -> int:
        return HEADER_SIZE + index * RECORD_SIZE

    def _read_slot(self, index: int) -> Tuple:
        """Seqlock-consistent snapshot of one record (retry on torn)."""
        offset = self._offset(index)
        buf = self._shm.buf
        for _ in range(_SEQLOCK_SPINS):
            before = _SEQ.unpack_from(buf, offset)[0]
            if before & 1:
                continue
            fields = _RECORD.unpack_from(buf, offset)
            if _SEQ.unpack_from(buf, offset)[0] == before:
                return fields
        return self._repair_slot(index)

    def _repair_slot(self, index: int) -> Tuple:
        """A writer died holding the seqlock odd: drop its torn record.

        The slot byte lock conflicts with any live writer's window, so
        once it is held an odd sequence can only mean a crashed writer.
        The half-written record is unusable; tombstoning it costs the
        peer one extra greylist deferral and nothing else.  (Header
        statistics may drift by the in-flight record after a crash —
        they are reporting, never decision input.)
        """
        offset = self._offset(index)
        with self._slot_lock(index):
            fields = _RECORD.unpack_from(self._shm.buf, offset)
            if fields[0] & 1:
                cleared = (
                    ((fields[0] + 1) & 0xFFFFFFFF, _TOMBSTONE)
                    + (0,) * 11
                    + (b"", b"")
                )
                _RECORD.pack_into(self._shm.buf, offset, *cleared)
                fields = _RECORD.unpack_from(self._shm.buf, offset)
        return fields

    def _write_slot(self, index: int, fields: Tuple) -> None:
        """Seqlocked record write (caller holds the window lock).

        Order matters: the payload is written while the sequence is odd
        and the even sequence is published *last*, so a reader can never
        pair a torn payload with a stable-looking sequence.
        """
        offset = self._offset(index)
        buf = self._shm.buf
        seq = _SEQ.unpack_from(buf, offset)[0]
        odd = (seq + 1) & 0xFFFFFFFF
        _RECORD.pack_into(buf, offset, odd, *fields[1:])
        _SEQ.pack_into(buf, offset, (odd + 1) & 0xFFFFFFFF)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_key(triplet: Triplet) -> Optional[Tuple[bytes, bytes]]:
        sender = triplet.sender.encode("utf-8")
        recipient = triplet.recipient.encode("utf-8")
        if len(sender) > MAX_KEY_BYTES or len(recipient) > MAX_KEY_BYTES:
            return None
        return sender, recipient

    @staticmethod
    def _hash_key(client: int, sender: bytes, recipient: bytes) -> int:
        # Deterministic across processes (Python's hash() is salted per
        # interpreter, useless as a shared table's bucket function).
        digest = hashlib.blake2b(digest_size=8)
        digest.update(client.to_bytes(4, "little"))
        digest.update(sender)
        digest.update(b"\0")
        digest.update(recipient)
        return int.from_bytes(digest.digest(), "little")

    def _matches(
        self, fields: Tuple, key_hash: int, client: int,
        sender: bytes, recipient: bytes,
    ) -> bool:
        if fields[4] != key_hash or fields[6] != client:
            return False
        s_len, r_len = fields[11], fields[12]
        return (
            fields[13][:s_len] == sender and fields[14][:r_len] == recipient
        )

    def _entry_from_fields(
        self, fields: Tuple, triplet: Optional[Triplet] = None
    ) -> TripletEntry:
        if triplet is None:
            triplet = Triplet(
                IPv4Address(fields[6]),
                fields[13][: fields[11]].decode("utf-8"),
                fields[14][: fields[12]].decode("utf-8"),
            )
        return TripletEntry(
            triplet=triplet,
            first_seen=fields[8],
            last_seen=fields[9],
            attempts=fields[7],
            passed=bool(fields[2]),
            passed_at=fields[10] if fields[3] else None,
        )

    def _fields_from_entry(
        self, entry: TripletEntry, key_hash: int, order: int,
        sender: bytes, recipient: bytes,
    ) -> Tuple:
        return (
            0,  # seq placeholder; _write_slot manages the real value
            _LIVE,
            1 if entry.passed else 0,
            0 if entry.passed_at is None else 1,
            key_hash,
            order,
            entry.triplet.client.value,
            entry.attempts,
            entry.first_seen,
            entry.last_seen,
            entry.passed_at if entry.passed_at is not None else 0.0,
            len(sender),
            len(recipient),
            sender,
            recipient,
        )

    def _probe(
        self, home: int, key_hash: int, client: int,
        sender: bytes, recipient: bytes,
    ) -> Tuple[Optional[int], Optional[int]]:
        """(index of the live key, first reusable slot) within the window.

        Caller holds the window lock.  Probing stops at the first empty
        slot — inserts never place a key beyond one, so nothing can live
        past it.
        """
        free: Optional[int] = None
        for step in range(PROBE_WINDOW):
            index = (home + step) % self.capacity
            fields = _RECORD.unpack_from(self._shm.buf, self._offset(index))
            state = fields[1]
            if state == _EMPTY:
                if free is None:
                    free = index
                return None, free
            if state == _TOMBSTONE:
                if free is None:
                    free = index
                continue
            if self._matches(fields, key_hash, client, sender, recipient):
                return index, free
        return None, free

    # ------------------------------------------------------------------
    # TripletBackend interface
    # ------------------------------------------------------------------
    def get(self, triplet: Triplet) -> Optional[TripletEntry]:
        key = self._encode_key(triplet)
        if key is None:
            return None  # oversize keys are never stored (spill path)
        sender, recipient = key
        client = triplet.client.value
        key_hash = self._hash_key(client, sender, recipient)
        home = key_hash % self.capacity
        for step in range(PROBE_WINDOW):
            index = (home + step) % self.capacity
            fields = self._read_slot(index)
            state = fields[1]
            if state == _EMPTY:
                return None
            if state == _LIVE and self._matches(
                fields, key_hash, client, sender, recipient
            ):
                return self._entry_from_fields(fields, triplet)
        return None

    def put(self, entry: TripletEntry) -> None:
        key = self._encode_key(entry.triplet)
        if key is None:
            self._header_update(spilled=1)
            return
        sender, recipient = key
        client = entry.triplet.client.value
        key_hash = self._hash_key(client, sender, recipient)
        home = key_hash % self.capacity
        with self._window_lock(home):
            found, free = self._probe(home, key_hash, client, sender, recipient)
            if found is not None:
                order = _RECORD.unpack_from(self._shm.buf, self._offset(found))[5]
                self._write_slot(
                    found,
                    self._fields_from_entry(
                        entry, key_hash, order, sender, recipient
                    ),
                )
                return
            if free is None:
                self._header_update(spilled=1)
                return
            recycled = (
                _RECORD.unpack_from(self._shm.buf, self._offset(free))[1]
                == _TOMBSTONE
            )
            order = self._header_update(
                take_order=True, live=1, tombstones=-1 if recycled else 0
            )
            self._write_slot(
                free,
                self._fields_from_entry(
                    entry, key_hash, order, sender, recipient
                ),
            )

    def delete(self, triplet: Triplet) -> bool:
        key = self._encode_key(triplet)
        if key is None:
            return False
        sender, recipient = key
        client = triplet.client.value
        key_hash = self._hash_key(client, sender, recipient)
        home = key_hash % self.capacity
        with self._window_lock(home):
            found, _ = self._probe(home, key_hash, client, sender, recipient)
            if found is None:
                return False
            self._tombstone_slot(found)
        return True

    def _tombstone_slot(self, index: int) -> None:
        """Caller holds a lock covering ``index``."""
        fields = _RECORD.unpack_from(self._shm.buf, self._offset(index))
        self._write_slot(index, (fields[0], _TOMBSTONE) + fields[2:])
        self._header_update(live=-1, tombstones=1)

    def scan(self) -> Iterator[TripletEntry]:
        collected: List[Tuple[int, TripletEntry]] = []
        for index in range(self.capacity):
            fields = self._read_slot(index)
            if fields[1] == _LIVE:
                collected.append((fields[5], self._entry_from_fields(fields)))
        collected.sort(key=lambda pair: pair[0])
        return iter([entry for _, entry in collected])

    def expire(
        self, now: float, retry_window: float, whitelist_lifetime: float
    ) -> Tuple[int, int]:
        unconfirmed = confirmed = 0
        for index in range(self.capacity):
            fields = self._read_slot(index)
            if fields[1] != _LIVE or not timestamps_expired(
                bool(fields[2]), fields[9], now, retry_window,
                whitelist_lifetime,
            ):
                continue
            home = fields[4] % self.capacity
            with self._window_lock(home):
                current = _RECORD.unpack_from(
                    self._shm.buf, self._offset(index)
                )
                # The order stamp is unique per incarnation: same stamp
                # means the very record we sampled, not a recycled slot.
                if (
                    current[1] != _LIVE
                    or current[5] != fields[5]
                    or not timestamps_expired(
                        bool(current[2]), current[9], now, retry_window,
                        whitelist_lifetime,
                    )
                ):
                    continue
                self._tombstone_slot(index)
                if current[2]:
                    confirmed += 1
                else:
                    unconfirmed += 1
        return unconfirmed, confirmed

    def mark_passed(self, triplet: Triplet, now: float) -> bool:
        key = self._encode_key(triplet)
        if key is None:
            return False
        sender, recipient = key
        client = triplet.client.value
        key_hash = self._hash_key(client, sender, recipient)
        home = key_hash % self.capacity
        with self._window_lock(home):
            found, _ = self._probe(home, key_hash, client, sender, recipient)
            if found is None:
                return False
            fields = _RECORD.unpack_from(self._shm.buf, self._offset(found))
            if fields[2]:
                return False
            updated = (
                fields[0], _LIVE, 1, 1, fields[4], fields[5], fields[6],
                fields[7], fields[8], fields[9], now, fields[11],
                fields[12], fields[13], fields[14],
            )
            self._write_slot(found, updated)
        return True

    def record_attempt(
        self,
        triplet: Triplet,
        now: float,
        retry_window: float,
        whitelist_lifetime: float,
    ) -> Tuple[TripletEntry, Optional[str]]:
        """One delivery attempt, atomically, under the window lock.

        The whole lookup → expire-if-stale → create-or-update compound
        runs inside one critical section, so concurrent workers can
        never lose an attempt increment, resurrect an expired triplet,
        or double-count its expiry — the sequential-consistency contract
        the 8-worker equivalence tests check.
        """
        key = self._encode_key(triplet)
        if key is None:
            self._header_update(spilled=1)
            return (
                TripletEntry(triplet=triplet, first_seen=now, last_seen=now),
                None,
            )
        sender, recipient = key
        client = triplet.client.value
        key_hash = self._hash_key(client, sender, recipient)
        home = key_hash % self.capacity
        with self._window_lock(home):
            found, free = self._probe(home, key_hash, client, sender, recipient)
            if found is not None:
                fields = _RECORD.unpack_from(self._shm.buf, self._offset(found))
                if timestamps_expired(
                    bool(fields[2]), fields[9], now, retry_window,
                    whitelist_lifetime,
                ):
                    # Expired: replace in place as delete + re-insert
                    # (fresh order stamp moves it to the end of scan).
                    expired = "confirmed" if fields[2] else "unconfirmed"
                    entry = TripletEntry(
                        triplet=triplet, first_seen=now, last_seen=now
                    )
                    order = self._header_update(take_order=True)
                    self._write_slot(
                        found,
                        self._fields_from_entry(
                            entry, key_hash, order, sender, recipient
                        ),
                    )
                    return entry, expired
                entry = TripletEntry(
                    triplet=triplet,
                    first_seen=fields[8],
                    last_seen=now,
                    attempts=fields[7] + 1,
                    passed=bool(fields[2]),
                    passed_at=fields[10] if fields[3] else None,
                )
                updated = (
                    fields[0], _LIVE, fields[2], fields[3], fields[4],
                    fields[5], fields[6], fields[7] + 1, fields[8], now,
                    fields[10], fields[11], fields[12], fields[13],
                    fields[14],
                )
                self._write_slot(found, updated)
                return entry, None
            entry = TripletEntry(triplet=triplet, first_seen=now, last_seen=now)
            if free is None:
                self._header_update(spilled=1)
                return entry, None
            recycled = (
                _RECORD.unpack_from(self._shm.buf, self._offset(free))[1]
                == _TOMBSTONE
            )
            order = self._header_update(
                take_order=True, live=1, tombstones=-1 if recycled else 0
            )
            self._write_slot(
                free,
                self._fields_from_entry(
                    entry, key_hash, order, sender, recipient
                ),
            )
            return entry, None

    def __len__(self) -> int:
        return self._header_read()[1]

    def confirmed_count(self) -> int:
        count = 0
        for index in range(self.capacity):
            fields = self._read_slot(index)
            if fields[1] == _LIVE and fields[2]:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spill_count(self) -> int:
        """Attempts answered without storage because the table was full
        (or the key oversize) — the graceful-degradation alarm metric."""
        return self._header_read()[3]

    @property
    def tombstone_count(self) -> int:
        return self._header_read()[2]

    def __repr__(self) -> str:
        return (
            f"SharedMemoryBackend(segment={self.segment!r}, "
            f"capacity={self.capacity}, live={len(self)})"
        )
