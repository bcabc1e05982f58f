"""Global spam-telemetry feed.

A mass spammer does not only hit the server under study — it sprays the
whole internet, and other receivers (spamtraps, honeypots, big providers)
report sightings to the blacklists continuously.  :class:`TelemetryFeed`
models that external reporting stream: once armed for a source address, it
delivers sightings to a :class:`~repro.blacklist.dnsbl.ReactiveBlacklist`
at a configurable rate on the event scheduler.

The reporting *rate* is the lever of the synergy experiment: an aggressive
mass-spammer (high rate) gets listed within minutes — exactly the kind of
sender the paper says greylisting delays long enough to be caught.
"""

from __future__ import annotations

from typing import Set

from ..net.address import IPv4Address
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream
from .dnsbl import ReactiveBlacklist


class TelemetryFeed:
    """Streams external spam sightings of armed addresses to a blacklist."""

    def __init__(
        self,
        scheduler: EventScheduler,
        blacklist: ReactiveBlacklist,
        rng: RandomStream,
        reports_per_hour: float = 60.0,
    ) -> None:
        if reports_per_hour <= 0:
            raise ValueError("reporting rate must be positive")
        self.scheduler = scheduler
        self.blacklist = blacklist
        self.rng = rng
        self.reports_per_hour = reports_per_hour
        self._armed: Set[IPv4Address] = set()
        self.reports_delivered = 0

    def arm(self, address: IPv4Address) -> None:
        """Start external reporting for ``address`` (idempotent).

        Called when a source begins spamming — in the experiments, the
        moment the bot makes its first delivery attempt anywhere.
        """
        if address in self._armed:
            return
        self._armed.add(address)
        self._schedule_next(address)

    @property
    def armed_addresses(self) -> int:
        return len(self._armed)

    def _schedule_next(self, address: IPv4Address) -> None:
        rate_per_second = self.reports_per_hour / 3600.0
        delay = self.rng.expovariate(rate_per_second)
        self.scheduler.schedule_in(delay, lambda: self._deliver(address))

    def _deliver(self, address: IPv4Address) -> None:
        self.blacklist.report(address)
        self.reports_delivered += 1
        self._schedule_next(address)

    def __repr__(self) -> str:
        return (
            f"TelemetryFeed(armed={self.armed_addresses}, "
            f"delivered={self.reports_delivered})"
        )
