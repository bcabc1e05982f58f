"""Triplet-database persistence.

Postgrey keeps its triplet state in an on-disk BerkeleyDB; restarts must
not forget who already passed (or every sender would eat the delay again).
This module provides a text snapshot format for :class:`TripletStore`:
dump and load.  The snapshot moves state between backends and sizes the
database for the cost model; the durable backend itself is SQLite
(:mod:`repro.greylist.backends`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..net.address import IPv4Address
from ..sim.clock import Clock
from .store import TripletEntry, TripletStore
from .triplet import Triplet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .backends import TripletBackend

#: Snapshot format version, checked on load.
FORMAT_HEADER = "# repro-greylist-db v1"


class PersistenceError(ValueError):
    """Raised for malformed snapshots."""


def format_entry_line(entry: TripletEntry) -> str:
    """Serialize one entry as a v1 snapshot line::

        <client-ip> <sender> <recipient> <first> <last> <attempts> <passed-at|->

    ``repr()`` gives the shortest exact decimal for each float, so a
    dump/load round trip preserves timestamps bit-for-bit.
    """
    passed = repr(entry.passed_at) if entry.passed else "-"
    return (
        f"{entry.triplet.client} {entry.triplet.sender} "
        f"{entry.triplet.recipient} {entry.first_seen!r} "
        f"{entry.last_seen!r} {entry.attempts} {passed}"
    )


def dump_store(store: TripletStore) -> str:
    """Serialize the live entries of a store (one line per triplet).

    The sort key is *total* — ``(first_seen, client, sender, recipient)``
    — so the output is byte-identical regardless of the backend's scan
    order: the dump of a store is a pure function of its contents, which
    is what lets the backend-equivalence suite compare snapshots directly.
    """
    lines: List[str] = [FORMAT_HEADER]
    for entry in sorted(
        store.entries(),
        key=lambda e: (
            e.first_seen,
            str(e.triplet.client),
            e.triplet.sender,
            e.triplet.recipient,
        ),
    ):
        lines.append(format_entry_line(entry))
    return "\n".join(lines) + "\n"


def load_store(
    text: str,
    clock: Clock,
    retry_window: Optional[float] = None,
    whitelist_lifetime: Optional[float] = None,
    backend: Optional["TripletBackend"] = None,
) -> TripletStore:
    """Rebuild a store from a snapshot.

    Entries that are already expired relative to ``clock.now`` are
    expired on load with the same semantics a live lookup would apply:
    they are dropped *and counted* in ``expired_confirmed`` /
    ``expired_unconfirmed`` — so a loaded store's counters cannot drift
    from one that replayed the same history live.  ``None`` for either
    window means the :class:`TripletStore` default.  ``backend`` selects
    the storage backend of the rebuilt store (default: in-memory).
    """
    kwargs = {}
    if retry_window is not None:
        kwargs["retry_window"] = retry_window
    if whitelist_lifetime is not None:
        kwargs["whitelist_lifetime"] = whitelist_lifetime
    store = TripletStore(clock, backend=backend, **kwargs)

    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise PersistenceError("missing or unknown snapshot header")
    for line_number, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            client, sender, recipient, first, last, attempts, passed = (
                line.split()
            )
            entry = TripletEntry(
                triplet=Triplet(IPv4Address.parse(client), sender, recipient),
                first_seen=float(first),
                last_seen=float(last),
                attempts=int(attempts),
                passed=(passed != "-"),
                passed_at=None if passed == "-" else float(passed),
            )
        except (ValueError, TypeError) as error:
            raise PersistenceError(
                f"malformed snapshot line {line_number}: {line!r}"
            ) from error
        if entry.attempts < 1 or entry.last_seen < entry.first_seen:
            raise PersistenceError(
                f"inconsistent entry on snapshot line {line_number}"
            )
        if store._is_expired(entry):
            if entry.passed:
                store.expired_confirmed += 1
            else:
                store.expired_unconfirmed += 1
            continue
        store.restore(entry)
    return store


def snapshot_size_bytes(store: TripletStore) -> int:
    """Size of the serialized database — the §VI disk-cost metric."""
    return len(dump_store(store).encode("utf-8"))
