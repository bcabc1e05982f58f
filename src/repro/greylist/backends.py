"""Pluggable storage backends for the triplet database.

The paper's greylisting numbers depend on triplet state *surviving*: the
university deployment kept its Postgrey BerkeleyDB across the whole
four-month log window, and iRedAPD serves the same decisions for years
from a SQL ``greylisting_tracking`` table.  This module extracts the
storage concern out of :class:`~repro.greylist.store.TripletStore` into a
narrow :class:`TripletBackend` interface so the simulated and served
policy paths share one durable core:

* :class:`MemoryBackend` — the original in-process dict; the default, and
  the behavioural reference for the other two.
* :class:`SQLiteBackend` — a WAL-mode SQLite database with an
  iRedAPD-style tracking schema (triplet key columns, first/last-seen
  timestamps, attempt counter, pass marker) plus an expiry index.  It is
  the one durable backend: WAL already gives it an op log, recovery from
  a torn write and checkpoint compaction.
* :class:`~repro.greylist.shm.SharedMemoryBackend` (``shm``) — one
  shared-memory table for the prefork serving workers.

Determinism contract: every backend must be *bit-for-bit* equivalent —
identical :class:`~repro.greylist.policy.GreylistEvent` streams, store
sizes and expiry counters for identical input streams.  The rules that
make this hold:

1. The expiry predicate is :func:`~repro.greylist.store.entry_is_expired`
   (over :func:`~repro.greylist.store.timestamps_expired`) and nothing
   else.  The SQLite backend may use its index to *pre-filter candidates*
   (with a slack margin), but the final decision is always the exact
   float comparison this function performs — SQL inequalities on
   ``REAL`` columns are never trusted to reproduce Python float
   semantics at the boundary.
2. Timestamps round-trip exactly: SQLite ``REAL`` and the shm record's
   ``f64`` fields are IEEE doubles (lossless).
3. ``scan()`` order is insertion order (updates keep an entry's
   position; a delete + re-insert moves it to the end), which all three
   backends implement — the dict natively, SQLite via an
   ``AUTOINCREMENT`` rowid, shm via a per-insert order stamp.
"""

from __future__ import annotations

import sqlite3
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..net.address import IPv4Address
from .store import TripletEntry, entry_is_expired, timestamps_expired
from .triplet import Triplet

#: Backend names :func:`create_backend` understands (CLI choices).
BACKEND_NAMES = ("memory", "sqlite", "shm")

#: Added to SQL expiry cutoffs so the indexed candidate pre-filter can
#: never *miss* an entry the exact Python predicate would expire (float
#: rounding at the boundary is ulp-scale; one second is beyond generous).
_EXPIRY_SLACK = 1.0


class StoreError(Exception):
    """A triplet store this run cannot use; the CLI prints ``error: <str>``."""


def cannot_open(path: Union[str, Path, None], why: object) -> StoreError:
    """The :class:`StoreError` for a store that failed to open, ``why``
    being the exception its opening raised or a description."""
    reason = getattr(why, "strerror", None) or why
    return StoreError(f"cannot open triplet store {path}: {reason}")


class TripletBackend(ABC):
    """Storage interface behind :class:`~repro.greylist.store.TripletStore`.

    Implementations store :class:`TripletEntry` rows keyed by their
    :class:`Triplet`.  The policy veneer owns the clock, the expiry
    windows and the expiry *counters*; backends own bytes and atomicity.
    """

    #: Registry name (matches :func:`create_backend`).
    name = "abstract"

    @abstractmethod
    def get(self, triplet: Triplet) -> Optional[TripletEntry]:
        """Fetch the entry for a triplet, or ``None``.  No expiry logic."""

    @abstractmethod
    def put(self, entry: TripletEntry) -> None:
        """Insert or update an entry (keyed by ``entry.triplet``)."""

    @abstractmethod
    def delete(self, triplet: Triplet) -> bool:
        """Remove an entry; returns whether it existed."""

    @abstractmethod
    def scan(self) -> Iterator[TripletEntry]:
        """Iterate every entry in insertion order (snapshot semantics:
        mutating the backend while consuming the iterator is allowed)."""

    @abstractmethod
    def expire(
        self, now: float, retry_window: float, whitelist_lifetime: float
    ) -> Tuple[int, int]:
        """Bulk-delete every expired entry.

        Returns ``(unconfirmed, confirmed)`` removal counts — the inputs
        to the store's ``expired_unconfirmed`` / ``expired_confirmed``
        counters.  Must implement exactly :func:`entry_is_expired`.
        """

    @abstractmethod
    def mark_passed(self, triplet: Triplet, now: float) -> bool:
        """Atomically set ``passed=True, passed_at=now`` if the entry
        exists and has not passed yet; returns whether it changed.

        This is the one compound operation the serving path needs to be
        transactional (two workers may race on the same retry).
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries (expired-but-unswept ones included)."""

    def record_attempt(
        self,
        triplet: Triplet,
        now: float,
        retry_window: float,
        whitelist_lifetime: float,
    ) -> Tuple[TripletEntry, Optional[str]]:
        """One delivery attempt as a single compound operation.

        Semantics (exactly :meth:`TripletStore.observe`'s historical
        lookup → expire-if-stale → create-or-update → put sequence, so
        event streams and snapshots stay bit-for-bit):

        * a stored entry that :func:`entry_is_expired` is deleted first;
          the second return value names what expired (``"confirmed"`` /
          ``"unconfirmed"`` — the store's expiry-counter input) and the
          attempt then creates a fresh entry;
        * an absent key creates a fresh entry (``attempts=1``);
        * a live entry gets ``attempts += 1`` and ``last_seen = now``.

        SQLite inherits this default.  The memory backend overrides it
        to answer with one dict probe, and shm overrides it to run the
        whole compound under one lock, so concurrent workers never lose
        an attempt or double-count an expiry.
        """
        expired: Optional[str] = None
        entry = self.get(triplet)
        if entry is not None and entry_is_expired(
            entry, now, retry_window, whitelist_lifetime
        ):
            self.delete(triplet)
            expired = "confirmed" if entry.passed else "unconfirmed"
            entry = None
        if entry is None:
            entry = TripletEntry(
                triplet=triplet, first_seen=now, last_seen=now
            )
        else:
            entry.attempts += 1
            entry.last_seen = now
        self.put(entry)
        return entry, expired

    def confirmed_count(self) -> int:
        """Number of entries with ``passed=True`` (no expiry check)."""
        return sum(1 for entry in self.scan() if entry.passed)

    def bulk_load(self, entries: List[TripletEntry]) -> None:
        """Insert many entries at once (snapshot load, benchmarks)."""
        for entry in entries:
            self.put(entry)

    def flush(self) -> None:
        """Make buffered writes durable.  No-op for volatile backends."""

    def close(self) -> None:
        """Flush and release resources.  Idempotent."""
        self.flush()


# ----------------------------------------------------------------------
# In-memory dict (the original TripletStore storage, extracted)
# ----------------------------------------------------------------------
class MemoryBackend(TripletBackend):
    """The process-local dict backend — default, zero behaviour change."""

    name = "memory"

    def __init__(self) -> None:
        self._entries: Dict[Triplet, TripletEntry] = {}

    def get(self, triplet: Triplet) -> Optional[TripletEntry]:
        return self._entries.get(triplet)

    def put(self, entry: TripletEntry) -> None:
        self._entries[entry.triplet] = entry

    def delete(self, triplet: Triplet) -> bool:
        return self._entries.pop(triplet, None) is not None

    def record_attempt(
        self,
        triplet: Triplet,
        now: float,
        retry_window: float,
        whitelist_lifetime: float,
    ) -> Tuple[TripletEntry, Optional[str]]:
        """The inherited compound, with one dict probe for a live entry.

        A live entry is updated in place: the inherited ``put`` would
        reassign an existing key, which keeps its dict position, so
        skipping it changes no ``scan()`` order.  A new triplet is
        inserted at the end; an expired one is deleted and re-inserted
        at the end, as the inherited delete + put does.
        """
        entries = self._entries
        entry = entries.get(triplet)
        if entry is None:
            entry = entries[triplet] = TripletEntry(triplet, now, now)
            return entry, None
        if not timestamps_expired(
            entry.passed, entry.last_seen, now, retry_window,
            whitelist_lifetime,
        ):
            entry.attempts += 1
            entry.last_seen = now
            return entry, None
        del entries[triplet]
        fresh = entries[triplet] = TripletEntry(triplet, now, now)
        return fresh, "confirmed" if entry.passed else "unconfirmed"

    def scan(self) -> Iterator[TripletEntry]:
        return iter(list(self._entries.values()))

    def expire(
        self, now: float, retry_window: float, whitelist_lifetime: float
    ) -> Tuple[int, int]:
        stale = [
            triplet
            for triplet, entry in self._entries.items()
            if entry_is_expired(entry, now, retry_window, whitelist_lifetime)
        ]
        unconfirmed = confirmed = 0
        for triplet in stale:
            if self._entries.pop(triplet).passed:
                confirmed += 1
            else:
                unconfirmed += 1
        return unconfirmed, confirmed

    def mark_passed(self, triplet: Triplet, now: float) -> bool:
        entry = self._entries.get(triplet)
        if entry is None or entry.passed:
            return False
        entry.passed = True
        entry.passed_at = now
        return True

    def __len__(self) -> int:
        return len(self._entries)


# ----------------------------------------------------------------------
# SQLite (WAL) — the iRedAPD greylisting_tracking shape
# ----------------------------------------------------------------------
_SCHEMA = """
CREATE TABLE IF NOT EXISTS greylisting_tracking (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    client      INTEGER NOT NULL,
    sender      TEXT    NOT NULL,
    recipient   TEXT    NOT NULL,
    first_seen  REAL    NOT NULL,
    last_seen   REAL    NOT NULL,
    attempts    INTEGER NOT NULL,
    passed      INTEGER NOT NULL DEFAULT 0,
    passed_at   REAL,
    UNIQUE (client, sender, recipient)
);
CREATE INDEX IF NOT EXISTS ix_greylisting_expiry
    ON greylisting_tracking (passed, last_seen);
"""

_COLUMNS = (
    "client, sender, recipient, first_seen, last_seen, "
    "attempts, passed, passed_at"
)

# Statement texts are module constants so every execute() passes the
# *identical* string object: sqlite3's per-connection statement cache is
# keyed by the SQL text, and a constant guarantees a hit — the prepared
# statement (parse + plan) is reused instead of recompiled per call.
# This is the difference between ~100k and ~150k lookups/sec when the
# policy daemon serves from SQLite (see docs/PERFORMANCE.md).
_GET_SQL = (
    "SELECT first_seen, last_seen, attempts, passed, passed_at"
    " FROM greylisting_tracking"
    " WHERE client=? AND sender=? AND recipient=?"
)
_UPSERT_SQL = (
    "INSERT INTO greylisting_tracking"
    f" ({_COLUMNS}) VALUES (?,?,?,?,?,?,?,?)"
    " ON CONFLICT(client, sender, recipient) DO UPDATE SET"
    " first_seen=excluded.first_seen, last_seen=excluded.last_seen,"
    " attempts=excluded.attempts, passed=excluded.passed,"
    " passed_at=excluded.passed_at"
)
_DELETE_SQL = (
    "DELETE FROM greylisting_tracking"
    " WHERE client=? AND sender=? AND recipient=?"
)
_SCAN_SQL = f"SELECT {_COLUMNS} FROM greylisting_tracking ORDER BY id"
_EXPIRY_CANDIDATES_SQL = (
    "SELECT id, passed, last_seen FROM greylisting_tracking"
    " WHERE (passed=0 AND last_seen <= ?)"
    "    OR (passed=1 AND last_seen <= ?)"
)
_MARK_PASSED_SQL = (
    "UPDATE greylisting_tracking SET passed=1, passed_at=?"
    " WHERE client=? AND sender=? AND recipient=? AND passed=0"
)


class SQLiteBackend(TripletBackend):
    """Triplet rows in a WAL-mode SQLite database.

    The schema follows iRedAPD's ``greylisting_tracking`` table: the
    triplet key columns, first/last-seen timestamps, an attempt counter
    and the pass marker, with a ``(passed, last_seen)`` index so expiry
    sweeps are range scans rather than full-table scans.  WAL mode lets
    a future policy server read from several workers while one writer
    appends — the concurrency model Postfix policy daemons need.

    Writes are batched: the connection stays inside an explicit
    transaction that is committed every ``commit_every`` mutations (and
    on :meth:`flush`/:meth:`close`).  Reads on the same connection see
    the uncommitted batch, so batching is invisible to the simulation.

    ``path=None`` opens a private in-memory database — handy for
    equivalence tests and worker processes that only need the schema,
    not durability.
    """

    name = "sqlite"

    def __init__(
        self,
        path: Union[str, Path, None] = None,
        commit_every: int = 1024,
    ) -> None:
        if commit_every < 1:
            raise ValueError("commit_every must be >= 1")
        self.path = str(path) if path is not None else None
        self.commit_every = commit_every
        # cached_statements: every statement here is a module constant,
        # so a modest cache holds the whole working set and each execute
        # reuses its prepared statement (the default 128 already would;
        # being explicit documents that we rely on it).
        try:
            self._conn = sqlite3.connect(
                self.path or ":memory:", cached_statements=256
            )
        except sqlite3.Error as exc:  # a missing directory, say
            raise cannot_open(self.path, exc) from exc
        try:
            self._conn.isolation_level = None  # explicit transaction control
            if self.path is not None:
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                # Serving: a sibling process (checkpointer, stats reader)
                # may briefly hold the lock; back off instead of failing
                # the policy decision with SQLITE_BUSY.
                self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.execute("PRAGMA temp_store=MEMORY")
            # The expiry index keys on last_seen, so its inserts/deletes
            # land in random pages; the 2 MiB default cache thrashes at
            # million-entry scale (bulk loads and sweeps go I/O bound).
            # 64 MiB keeps the working set resident.
            self._conn.execute("PRAGMA cache_size=-65536")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
        except sqlite3.Error as exc:  # a file that is not a database, say
            self._conn.close()
            raise cannot_open(self.path, exc) from exc
        self._pending = 0
        self._closed = False

    # -- batching ------------------------------------------------------
    def _begin(self) -> None:
        """Open the batch's transaction before its first mutation.

        The connection runs in autocommit mode (``isolation_level=None``),
        so without an explicit ``BEGIN`` every statement would commit on
        its own and ``commit_every`` would batch nothing.
        """
        if not self._conn.in_transaction:
            self._conn.execute("BEGIN")

    def _mutated(self, count: int = 1) -> None:
        self._pending += count
        if self._pending >= self.commit_every:
            self.flush()

    def flush(self) -> None:
        if self._pending or self._conn.in_transaction:
            # Committing on the serving event loop is deliberate: sqlite3
            # connections are thread-bound by default, and a batched WAL
            # commit under synchronous=NORMAL is sub-millisecond — the
            # same single-writer trade iRedAPD makes.
            self._conn.commit()  # repro: noqa ASY001 - batched WAL commit is sub-ms; sqlite3 connections are thread-bound
        self._pending = 0

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._conn.close()
        self._closed = True

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        # Best-effort teardown: interpreter shutdown may have torn down
        # sqlite3 internals already, and a destructor must never raise.
        try:
            self.close()
        except Exception:  # repro: noqa EXC001 - destructors must not raise
            pass

    # -- row mapping ---------------------------------------------------
    @staticmethod
    def _entry_from_row(row: tuple) -> TripletEntry:
        client, sender, recipient, first, last, attempts, passed, passed_at = row
        return TripletEntry(
            triplet=Triplet(IPv4Address(client), sender, recipient),
            first_seen=first,
            last_seen=last,
            attempts=attempts,
            passed=bool(passed),
            passed_at=passed_at,
        )

    @staticmethod
    def _row_from_entry(entry: TripletEntry) -> tuple:
        triplet = entry.triplet
        return (
            triplet.client.value,
            triplet.sender,
            triplet.recipient,
            entry.first_seen,
            entry.last_seen,
            entry.attempts,
            1 if entry.passed else 0,
            entry.passed_at,
        )

    # -- interface -----------------------------------------------------
    def get(self, triplet: Triplet) -> Optional[TripletEntry]:
        # Hot path of every RCPT decision: select only the state columns
        # and reuse the caller's (already canonical) triplet — rebuilding
        # one re-validates both addresses and dominates the lookup cost.
        row = self._conn.execute(
            _GET_SQL,
            (triplet.client.value, triplet.sender, triplet.recipient),
        ).fetchone()
        if row is None:
            return None
        return TripletEntry(
            triplet=triplet,
            first_seen=row[0],
            last_seen=row[1],
            attempts=row[2],
            passed=bool(row[3]),
            passed_at=row[4],
        )

    def put(self, entry: TripletEntry) -> None:
        self._begin()
        self._conn.execute(_UPSERT_SQL, self._row_from_entry(entry))
        self._mutated()

    def bulk_load(self, entries: List[TripletEntry]) -> None:
        self._begin()
        self._conn.executemany(
            _UPSERT_SQL,
            [self._row_from_entry(entry) for entry in entries],
        )
        self._mutated(len(entries))

    def delete(self, triplet: Triplet) -> bool:
        self._begin()
        cursor = self._conn.execute(
            _DELETE_SQL,
            (triplet.client.value, triplet.sender, triplet.recipient),
        )
        if cursor.rowcount > 0:
            self._mutated()
            return True
        return False

    def scan(self) -> Iterator[TripletEntry]:
        # A dedicated cursor with fetchmany keeps memory flat at millions
        # of rows; ORDER BY id is insertion order (AUTOINCREMENT ids are
        # never reused, so delete + re-insert moves to the end, exactly
        # like a dict).
        cursor = self._conn.execute(_SCAN_SQL)
        while True:
            rows = cursor.fetchmany(4096)
            if not rows:
                return
            for row in rows:
                yield self._entry_from_row(row)

    def expire(
        self, now: float, retry_window: float, whitelist_lifetime: float
    ) -> Tuple[int, int]:
        # Indexed candidate pre-filter with slack, exact predicate in
        # Python (determinism contract rule 1), then a batched delete.
        # Only (id, passed, last_seen) leave SQLite: the predicate needs
        # nothing else, and materializing entries (with their address
        # re-validation) would dominate a million-row sweep.
        candidates = self._conn.execute(
            _EXPIRY_CANDIDATES_SQL,
            (
                now - retry_window + _EXPIRY_SLACK,
                now - whitelist_lifetime + _EXPIRY_SLACK,
            ),
        ).fetchall()
        doomed: List[int] = []
        unconfirmed = confirmed = 0
        for rowid, passed, last_seen in candidates:
            if timestamps_expired(
                passed, last_seen, now, retry_window, whitelist_lifetime
            ):
                doomed.append(rowid)
                if passed:
                    confirmed += 1
                else:
                    unconfirmed += 1
        # Chunked IN-list deletes: ~1000x fewer statements than a
        # one-row-per-execute plan at million-entry sweeps.
        if doomed:
            self._begin()
        for start in range(0, len(doomed), 500):
            chunk = doomed[start:start + 500]
            self._conn.execute(
                "DELETE FROM greylisting_tracking WHERE id IN"
                f" ({','.join('?' * len(chunk))})",
                chunk,
            )
        if doomed:
            self._mutated(len(doomed))
        return unconfirmed, confirmed

    def mark_passed(self, triplet: Triplet, now: float) -> bool:
        self._begin()
        cursor = self._conn.execute(
            _MARK_PASSED_SQL,
            (now, triplet.client.value, triplet.sender, triplet.recipient),
        )
        if cursor.rowcount > 0:
            self._mutated()
            return True
        return False

    def __len__(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM greylisting_tracking"
        ).fetchone()
        return int(row[0])

    def confirmed_count(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM greylisting_tracking WHERE passed=1"
        ).fetchone()
        return int(row[0])


# ----------------------------------------------------------------------
# Factory
# ----------------------------------------------------------------------
#: ``commit_every`` the serving daemon uses for SQLite.  Simulation runs
#: favour huge batches (1024 — throughput is everything, the process owns
#: the data).  A policy daemon answers *live* MTAs: a smaller batch bounds
#: how many acknowledged decisions a crash can lose to one WAL commit
#: (~0.1 ms under WAL+NORMAL, so the throughput cost is noise), and the
#: server's periodic flush loop caps the loss window in time as well.
SERVING_COMMIT_EVERY = 128


def create_backend(
    name: str,
    path: Union[str, Path, None] = None,
    commit_every: Optional[int] = None,
) -> TripletBackend:
    """Build a backend by registry name (one of :data:`BACKEND_NAMES`).

    ``path`` is the SQLite database file or the shm sentinel file
    (ignored by ``memory``; ``None`` means volatile operation for both —
    for ``shm``, a private segment destroyed on close).  A path that
    cannot be opened raises :class:`StoreError`.  ``commit_every``
    overrides the SQLite write-batch size (ignored by the other
    backends); the serving daemon passes :data:`SERVING_COMMIT_EVERY`.
    """
    if name == "memory":
        return MemoryBackend()
    if name == "sqlite":
        if commit_every is not None:
            return SQLiteBackend(path, commit_every=commit_every)
        return SQLiteBackend(path)
    if name == "shm":
        from .shm import SharedMemoryBackend

        return SharedMemoryBackend(path)
    raise ValueError(
        f"unknown triplet-store backend {name!r}; expected one of "
        + ", ".join(BACKEND_NAMES)
    )
