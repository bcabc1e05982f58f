"""Stub resolver with caching and error semantics.

The resolver answers A / MX / ANY queries against a :class:`ZoneStore`.  It
implements the behaviours the paper's measurement pipeline depends on:

* **NXDOMAIN** vs **NODATA** distinction (a domain that exists but lacks MX
  records is "no data", not "no domain");
* the **additional section** of an MX answer, carrying the glue A record of
  every exchange that resolves (the scanners, not the resolver, model the
  elided glue the paper's "parallel scanner" had to re-resolve);
* a positive **cache** honouring TTLs against the simulation clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..net.address import IPv4Address
from ..sim.clock import Clock
from .records import ARecord, MXRecord, normalize_name
from .zone import ZoneStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults.model import FaultPlan


class DNSError(Exception):
    """Base class for resolution failures."""


class NXDomain(DNSError):
    """The queried name does not exist in any zone."""


class ServFail(DNSError):
    """The authoritative server failed (simulated outage)."""


class DNSTimeout(DNSError):
    """The query went unanswered (injected resolver/network fault)."""


@dataclass
class MXAnswer:
    """Answer to an MX query.

    ``additional`` carries the glue A record of every exchange that
    resolves; an exchange absent from it has no address.
    """

    name: str
    records: List[MXRecord]
    additional: Dict[str, IPv4Address] = field(default_factory=dict)


class StubResolver:
    """Caching stub resolver over an authoritative :class:`ZoneStore`.

    Parameters
    ----------
    zones:
        Authoritative data.
    clock:
        Simulation clock used for TTL accounting.  Optional; without a clock
        the cache never expires (fine for single-instant scans).
    faults:
        Optional :class:`~repro.faults.model.FaultPlan`.  Authoritative
        queries (cache misses only — cached answers never touch the flaky
        server) may then SERVFAIL, time out, or hit a persistently lame
        delegation, all drawn deterministically per ``(name, epoch)``.
        The Figure 2 scanners pass one; no other resolver injects faults.
    fault_epoch:
        Epoch of those fault draws: the scanners pass the scan index.
    """

    def __init__(
        self,
        zones: ZoneStore,
        clock: Optional[Clock] = None,
        faults: Optional["FaultPlan"] = None,
        fault_epoch: int = 0,
    ) -> None:
        self.zones = zones
        self.clock = clock
        self._faults = faults
        self._fault_epoch = fault_epoch
        self._a_cache: Dict[str, Tuple[float, List[ARecord]]] = {}
        self._mx_cache: Dict[str, Tuple[float, List[MXRecord]]] = {}
        self.queries = 0
        self.cache_hits = 0
        #: chronological (qtype, name, answer-summary) triples of every
        #: authoritative query — the wire trace Figure 1 renders.
        self.query_log: List[Tuple[str, str, str]] = []

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def _check_faults(self, qtype: str, name: str) -> None:
        """Injected transient faults for one authoritative query."""
        if self._faults is None:
            return
        epoch = self._fault_epoch
        outcome = self._faults.dns_fault(name, epoch)
        if outcome == "servfail":
            self.query_log.append((qtype, name, "SERVFAIL"))
            raise ServFail(f"{name!r} SERVFAIL (injected, epoch {epoch})")
        if outcome == "timeout":
            self.query_log.append((qtype, name, "TIMEOUT"))
            raise DNSTimeout(f"{name!r} timed out (injected, epoch {epoch})")

    def _check_lame(self, qtype: str, apex: str) -> None:
        """Injected persistently lame delegation for a zone."""
        if self._faults is not None and self._faults.zone_lame(apex):
            self.query_log.append((qtype, apex, "SERVFAIL (lame)"))
            raise ServFail(f"lame delegation for zone {apex!r}")

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    def _cache_get(self, cache: Dict, name: str) -> Optional[list]:
        hit = cache.get(name)
        if hit is None:
            return None
        expires, records = hit
        if self.clock is not None and self._now() >= expires:
            del cache[name]
            return None
        self.cache_hits += 1
        return records

    def _cache_put(self, cache: Dict, name: str, records: list) -> None:
        if not records:
            return
        ttl = min(r.ttl for r in records)
        cache[name] = (self._now() + ttl, records)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def resolve_a(self, name: str) -> List[ARecord]:
        """A query.  Raises NXDomain; returns [] for NODATA."""
        name = normalize_name(name)
        cached = self._cache_get(self._a_cache, name)
        if cached is not None:
            return list(cached)
        self.queries += 1
        self._check_faults("A", name)
        zone = self.zones.zone_for(name)
        if zone is None:
            self.query_log.append(("A", name, "NXDOMAIN"))
            raise NXDomain(name)
        self._check_lame("A", zone.apex)
        records = zone.a_records(name)
        if not records and name not in zone.names() and name != zone.apex:
            self.query_log.append(("A", name, "NXDOMAIN"))
            raise NXDomain(name)
        self.query_log.append(
            ("A", name, ", ".join(str(r.address) for r in records) or "NODATA")
        )
        self._cache_put(self._a_cache, name, records)
        return records

    def resolve_address(self, name: str) -> IPv4Address:
        """Resolve a hostname to its first A address; raises on NODATA."""
        records = self.resolve_a(name)
        if not records:
            raise NXDomain(f"{name} has no A record")
        return records[0].address

    def resolve_mx(self, domain: str) -> MXAnswer:
        """MX query with each exchange's glue in the additional section."""
        domain = normalize_name(domain)
        cached = self._cache_get(self._mx_cache, domain)
        if cached is not None:
            records = list(cached)
        else:
            self.queries += 1
            self._check_faults("MX", domain)
            zone = self.zones.zone_for(domain)
            if zone is None:
                self.query_log.append(("MX", domain, "NXDOMAIN"))
                raise NXDomain(domain)
            self._check_lame("MX", zone.apex)
            records = zone.mx_records(domain)
            self.query_log.append(
                (
                    "MX",
                    domain,
                    "; ".join(
                        f"MX {r.preference} {r.exchange}"
                        for r in sorted(records, key=lambda r: r.preference)
                    )
                    or "NODATA",
                )
            )
            self._cache_put(self._mx_cache, domain, records)
        additional: Dict[str, IPv4Address] = {}
        for mx in records:
            try:
                a_records = self.resolve_a(mx.exchange)
            except DNSError:
                continue
            if a_records:
                additional[mx.exchange] = a_records[0].address
        return MXAnswer(name=domain, records=records, additional=additional)

    def __repr__(self) -> str:
        return (
            f"StubResolver(queries={self.queries}, "
            f"cache_hits={self.cache_hits})"
        )
