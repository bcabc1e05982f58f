"""Triplet database with expiry.

Models the Postgrey on-disk database: per-triplet state (first-seen time,
attempt count, whether it has passed), plus the two expiry windows real
deployments enforce:

* ``retry_window`` — a greylisted triplet that never comes back within this
  window is forgotten (Postgrey ``--max-age`` for unconfirmed entries);
* ``whitelist_lifetime`` — a confirmed triplet stays whitelisted this long
  after its last use (Postgrey keeps entries ~35 days past last activity).

Storage is pluggable: :class:`TripletStore` is a policy veneer (clock,
expiry windows, expiry counters) over a
:class:`~repro.greylist.backends.TripletBackend` — the in-process dict by
default, SQLite/WAL for state that must survive the interpreter, or a
shared-memory table for prefork workers (see
:mod:`repro.greylist.backends`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from ..sim.clock import Clock
from .triplet import Triplet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends->store)
    from .backends import TripletBackend

DAY = 86400.0


@dataclass(slots=True)
class TripletEntry:
    """State tracked for one triplet."""

    triplet: Triplet
    first_seen: float
    last_seen: float
    attempts: int = 1
    passed: bool = False
    passed_at: Optional[float] = None


def timestamps_expired(
    passed: bool,
    last_seen: float,
    now: float,
    retry_window: float,
    whitelist_lifetime: float,
) -> bool:
    """The one true expiry predicate on raw fields.

    Split out from :func:`entry_is_expired` so backends that already hold
    ``(passed, last_seen)`` as scalars (the SQLite and shm expiry paths)
    can apply the *identical* float comparison without materializing an
    entry.
    """
    if passed:
        return now - last_seen > whitelist_lifetime
    return now - last_seen > retry_window


def entry_is_expired(
    entry: TripletEntry,
    now: float,
    retry_window: float,
    whitelist_lifetime: float,
) -> bool:
    """The one true expiry predicate (see the determinism contract in
    :mod:`repro.greylist.backends`)."""
    return timestamps_expired(
        entry.passed, entry.last_seen, now, retry_window, whitelist_lifetime
    )


class TripletStore:
    """Triplet database bound to the simulation clock.

    Parameters
    ----------
    clock:
        Simulation clock (the store never reads wall time).
    retry_window / whitelist_lifetime:
        The two Postgrey expiry windows (see module docstring).
    backend:
        Storage backend; ``None`` means a fresh in-memory dict
        (:class:`~repro.greylist.backends.MemoryBackend`) — the original
        behaviour.  All backends are bit-for-bit equivalent; durable ones
        additionally survive a restart.
    """

    def __init__(
        self,
        clock: Clock,
        retry_window: float = 2 * DAY,
        whitelist_lifetime: float = 35 * DAY,
        backend: Optional["TripletBackend"] = None,
    ) -> None:
        if retry_window <= 0 or whitelist_lifetime <= 0:
            raise ValueError("expiry windows must be positive")
        if backend is None:
            from .backends import MemoryBackend

            backend = MemoryBackend()
        self.clock = clock
        self.retry_window = retry_window
        self.whitelist_lifetime = whitelist_lifetime
        self.backend = backend
        self.expired_unconfirmed = 0
        self.expired_confirmed = 0

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def lookup(self, triplet: Triplet) -> Optional[TripletEntry]:
        """Fetch the live entry for a triplet, expiring it if stale.

        The expiry is counted only when this store's delete actually
        removed the row: under a shared backend a concurrent worker may
        have expired (or refreshed) the entry between the get and the
        delete, and its removal must be counted exactly once fleet-wide.
        """
        entry = self.backend.get(triplet)
        if entry is None:
            return None
        if self._is_expired(entry):
            if self.backend.delete(triplet):
                if entry.passed:
                    self.expired_confirmed += 1
                else:
                    self.expired_unconfirmed += 1
            return None
        return entry

    def observe(self, triplet: Triplet) -> TripletEntry:
        """Record one delivery attempt, creating the entry if new.

        Delegates to the backend's :meth:`record_attempt` compound op so
        shared backends can run the whole lookup → expire-if-stale →
        create-or-update sequence atomically; the single-process default
        reproduces the historical sequence bit-for-bit.
        """
        entry, expired = self.backend.record_attempt(
            triplet, self.clock.now, self.retry_window,
            self.whitelist_lifetime,
        )
        if expired == "confirmed":
            self.expired_confirmed += 1
        elif expired == "unconfirmed":
            self.expired_unconfirmed += 1
        return entry

    def mark_passed(self, triplet: Triplet) -> None:
        """Confirm a triplet (first post-threshold acceptance).

        Goes through :meth:`lookup` so live-expiry semantics apply: an
        expired-but-unswept triplet is expired (counted) and raises
        ``KeyError`` instead of being resurrected as confirmed past its
        retry window.  The backend applies the update transactionally.
        """
        entry = self.lookup(triplet)
        if entry is None:
            raise KeyError(f"unknown triplet {triplet}")
        if not entry.passed:
            now = self.clock.now
            self.backend.mark_passed(triplet, now)
            # Keep the caller's (possibly detached) entry in sync with
            # the stored row.
            entry.passed = True
            entry.passed_at = now

    def restore(self, entry: TripletEntry) -> None:
        """Insert a deserialized entry verbatim (snapshot load path)."""
        self.backend.put(entry)

    def _is_expired(self, entry: TripletEntry) -> bool:
        return entry_is_expired(
            entry, self.clock.now, self.retry_window, self.whitelist_lifetime
        )

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Drop every expired entry; returns the number removed."""
        unconfirmed, confirmed = self.backend.expire(
            self.clock.now, self.retry_window, self.whitelist_lifetime
        )
        self.expired_unconfirmed += unconfirmed
        self.expired_confirmed += confirmed
        return unconfirmed + confirmed

    def entries(self) -> Iterable[TripletEntry]:
        return self.backend.scan()

    def flush(self) -> None:
        """Make buffered backend writes durable (no-op for memory)."""
        self.backend.flush()

    def close(self) -> None:
        """Flush and release backend resources."""
        self.backend.close()

    @property
    def size(self) -> int:
        return len(self.backend)

    @property
    def confirmed(self) -> int:
        return self.backend.confirmed_count()

    def __contains__(self, triplet: Triplet) -> bool:
        return self.lookup(triplet) is not None

    def __repr__(self) -> str:
        return (
            f"TripletStore(size={self.size}, confirmed={self.confirmed}, "
            f"backend={self.backend.name})"
        )
