"""A reactive DNS blacklist (DNSBL).

The paper's greylisting supporters argue (§II) that even when a bot can
retry, "the delay introduced in the delivery of spam messages can be
enough for the sender ... to be detected and added into popular spammer
blacklists — therefore still helping to prevent the final delivery".
Quantifying that synergy needs a blacklist model, so here is one:

* spam *sightings* of a source address are reported to the blacklist by
  the rest of the internet, through
  :class:`~repro.blacklist.feed.TelemetryFeed`, since a mass-spammer hits
  many targets;
* once an address accumulates ``detection_threshold`` sightings, it is
  listed after a further ``processing_delay`` (operator verification,
  zone-publication lag);
* listings expire after ``listing_lifetime`` without new sightings, like
  the major DNSBLs' automatic delisting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..net.address import IPv4Address
from ..sim.clock import Clock

HOUR = 3600.0
DAY = 86400.0


@dataclass
class ListingState:
    """Everything the blacklist knows about one address."""

    address: IPv4Address
    sightings: int = 0
    last_sighted: Optional[float] = None
    listed_at: Optional[float] = None


class ReactiveBlacklist:
    """A sighting-driven IP blacklist bound to the simulation clock."""

    def __init__(
        self,
        clock: Clock,
        detection_threshold: int = 10,
        processing_delay: float = 1 * HOUR,
        listing_lifetime: float = 30 * DAY,
    ) -> None:
        if detection_threshold < 1:
            raise ValueError("detection threshold must be >= 1")
        if processing_delay < 0 or listing_lifetime <= 0:
            raise ValueError("delays must be non-negative / positive")
        self.clock = clock
        self.detection_threshold = detection_threshold
        self.processing_delay = processing_delay
        self.listing_lifetime = listing_lifetime
        self._states: Dict[IPv4Address, ListingState] = {}
        self.queries = 0
        self.hits = 0

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, address: IPv4Address) -> ListingState:
        """Record one spam sighting of ``address`` at the current time."""
        now = self.clock.now
        state = self._states.get(address)
        if state is None:
            state = ListingState(address=address)
            self._states[address] = state
        state.sightings += 1
        state.last_sighted = now
        if (
            state.listed_at is None
            and state.sightings >= self.detection_threshold
        ):
            state.listed_at = now + self.processing_delay
        return state

    # ------------------------------------------------------------------
    # Lookup (what an SMTP server does per connection)
    # ------------------------------------------------------------------
    def is_listed(self, address: IPv4Address) -> bool:
        self.queries += 1
        state = self._states.get(address)
        if state is None or state.listed_at is None:
            return False
        now = self.clock.now
        if now < state.listed_at:
            return False  # still propagating
        if (
            state.last_sighted is not None
            and now - state.last_sighted > self.listing_lifetime
        ):
            return False  # auto-delisted
        self.hits += 1
        return True

    def listed_at(self, address: IPv4Address) -> Optional[float]:
        state = self._states.get(address)
        return state.listed_at if state is not None else None

    @property
    def listed_count(self) -> int:
        return sum(
            1
            for state in self._states.values()
            if state.listed_at is not None and state.listed_at <= self.clock.now
        )

    def __repr__(self) -> str:
        return (
            f"ReactiveBlacklist(tracked={len(self._states)}, "
            f"listed={self.listed_count}, queries={self.queries})"
        )
