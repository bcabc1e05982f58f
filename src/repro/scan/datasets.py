"""Scan dataset containers.

Mirrors the two scans.io products the paper consumed:

* the **DNS Records (ANY)** dataset — per-domain MX/A answers, some with the
  exchange's address missing (the "not properly resolved" records the
  authors patched with a parallel scanner); and
* the **IPv4 SMTP banner grab** — the set of addresses that answered a SYN
  on port 25 at scan time.

Both are plain data: the detection pipeline in :mod:`repro.scan.detect`
works *only* from these, never from ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..net.address import IPv4Address


@dataclass
class MXObservation:
    """One MX record as captured by the DNS scan."""

    preference: int
    exchange: str
    address: Optional[IPv4Address]  # None = glue missing in the capture

    @property
    def resolved(self) -> bool:
        return self.address is not None


@dataclass
class DomainObservation:
    """Everything the DNS scan captured for one domain."""

    domain: str
    mx: List[MXObservation] = field(default_factory=list)
    nxdomain: bool = False
    servfail: bool = False
    #: the query went unanswered (resolver/network fault) — like servfail,
    #: a transient condition this scan learned nothing from
    timeout: bool = False

    @property
    def failed_transiently(self) -> bool:
        """The scan got no answer at all for this domain (SERVFAIL/timeout).

        Unlike NXDOMAIN, which is an authoritative statement about the
        domain, these tell us nothing — the two-scan protocol falls back
        to the other scan's observation.
        """
        return self.servfail or self.timeout

    def sorted_mx(self) -> List[MXObservation]:
        return sorted(self.mx, key=lambda r: (r.preference, r.exchange))


@dataclass
class DNSScanDataset:
    """The per-scan DNS capture, keyed by domain."""

    scan_index: int
    observations: Dict[str, DomainObservation] = field(default_factory=dict)

    def add(self, observation: DomainObservation) -> None:
        self.observations[observation.domain] = observation

    def get(self, domain: str) -> Optional[DomainObservation]:
        return self.observations.get(domain)

    @property
    def num_domains(self) -> int:
        return len(self.observations)

    def __iter__(self):
        return iter(self.observations.values())


@dataclass
class SMTPScanDataset:
    """The per-scan banner-grab capture: who answered on TCP/25."""

    scan_index: int
    listening: Set[IPv4Address] = field(default_factory=set)
    probed: int = 0

    def add(self, address: IPv4Address) -> None:
        self.listening.add(address)

    def __contains__(self, address: IPv4Address) -> bool:
        return address in self.listening
