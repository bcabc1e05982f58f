"""Authoritative DNS zones.

A :class:`Zone` holds the records for one domain (and hostnames under it).
The :class:`ZoneStore` is the global authoritative database the simulated
resolver queries.  Misconfiguration modes observed in the paper's DNS-ANY
dataset — MX records whose exchange has no A record, domains with no MX at
all — are first-class states here so the scan pipeline has to handle them
exactly like the authors' parallel re-resolving scanner did.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..net.address import IPv4Address
from .records import ARecord, DNSRecordError, MXRecord, normalize_name


class Zone:
    """All records authoritative for one apex domain."""

    def __init__(self, apex: str) -> None:
        self.apex = normalize_name(apex)
        self._a: Dict[str, List[ARecord]] = {}
        self._mx: Dict[str, List[MXRecord]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_in_zone(self, name: str) -> str:
        name = normalize_name(name)
        if name != self.apex and not name.endswith("." + self.apex):
            raise DNSRecordError(
                f"name {name!r} does not belong to zone {self.apex!r}"
            )
        return name

    def add_a(self, name: str, address: IPv4Address, ttl: int = 3600) -> ARecord:
        name = self._check_in_zone(name)
        record = ARecord(name, address, ttl)
        self._a.setdefault(name, []).append(record)
        return record

    def add_mx(
        self, preference: int, exchange: str, name: Optional[str] = None, ttl: int = 3600
    ) -> MXRecord:
        owner = self._check_in_zone(name) if name else self.apex
        record = MXRecord(owner, preference, exchange, ttl)
        self._mx.setdefault(owner, []).append(record)
        return record

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def a_records(self, name: str) -> List[ARecord]:
        return list(self._a.get(normalize_name(name), []))

    def mx_records(self, name: Optional[str] = None) -> List[MXRecord]:
        owner = normalize_name(name) if name else self.apex
        return list(self._mx.get(owner, []))

    def names(self) -> List[str]:
        """Every owner name with at least one record."""
        names = set(self._a) | set(self._mx)
        return sorted(names)

    def __repr__(self) -> str:
        return (
            f"Zone({self.apex!r}, a={sum(map(len, self._a.values()))}, "
            f"mx={sum(map(len, self._mx.values()))})"
        )


class ZoneStore:
    """The authoritative database of every zone on the virtual internet."""

    def __init__(self) -> None:
        self._zones: Dict[str, Zone] = {}

    def create(self, apex: str) -> Zone:
        apex = normalize_name(apex)
        if apex in self._zones:
            raise DNSRecordError(f"zone {apex!r} already exists")
        zone = Zone(apex)
        self._zones[apex] = zone
        return zone

    def get_or_create(self, apex: str) -> Zone:
        apex = normalize_name(apex)
        zone = self._zones.get(apex)
        return zone if zone is not None else self.create(apex)

    def delete(self, apex: str) -> None:
        self._zones.pop(normalize_name(apex), None)

    def zone_for(self, name: str) -> Optional[Zone]:
        """Find the most specific zone containing ``name``.

        Walks suffixes: a query for ``smtp.foo.net`` first tries the zone
        ``smtp.foo.net``, then ``foo.net``, then ``net``.
        """
        name = normalize_name(name)
        labels = name.split(".")
        for i in range(len(labels)):
            candidate = ".".join(labels[i:])
            zone = self._zones.get(candidate)
            if zone is not None:
                return zone
        return None

    @property
    def zones(self) -> Iterable[Zone]:
        return self._zones.values()

    @property
    def num_zones(self) -> int:
        return len(self._zones)

    def __contains__(self, apex: str) -> bool:
        return normalize_name(apex) in self._zones

    def __repr__(self) -> str:
        return f"ZoneStore(zones={self.num_zones})"
