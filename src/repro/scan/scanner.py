"""Simulated zmap scanners.

:class:`DNSScanner` performs the DNS-ANY sweep over the population —
including the imperfection the paper had to patch: a fraction of MX answers
arrive without the exchange's glue A record.  Its
:meth:`DNSScanner.parallel_resolve` implements the authors' follow-up
scanner that re-resolves those entries.

:class:`SMTPScanner` performs the SYN/banner sweep of port 25 over an
address list, producing the listening-host set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..dns.resolver import DNSTimeout, NXDomain, ServFail, StubResolver
from ..faults.model import FaultPlan
from ..net.address import IPv4Address
from .batch import elided_glue
from .datasets import (
    DNSScanDataset,
    DomainObservation,
    MXObservation,
    SMTPScanDataset,
)
from .population import SyntheticInternet


class DNSScanner:
    """Sweeps every domain of a population with an ANY query.

    Parameters
    ----------
    internet:
        The population under measurement.
    glue_elision_rate:
        Fraction of glue A records dropped from the capture (the scans.io
        dataset's "not properly resolved" entries).
    seed:
        Keys the elision draws; required when ``glue_elision_rate`` is
        positive.
    faults:
        Optional :class:`~repro.faults.model.FaultPlan`.  Resolution then
        suffers SERVFAIL/timeout bursts and lame delegations, drawn per
        ``(domain, scan index)`` — independently per scan, which is the
        transient-failure mode the two-scan protocol filters.
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        glue_elision_rate: float = 0.1,
        seed: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if not 0.0 <= glue_elision_rate <= 1.0:
            raise ValueError("glue_elision_rate must lie in [0, 1]")
        if glue_elision_rate > 0 and seed is None:
            raise ValueError("glue elision requires a seed")
        self.internet = internet
        self.glue_elision_rate = glue_elision_rate
        self.seed = seed
        self.faults = faults

    def iter_observations(self, scan_index: int) -> Iterator[DomainObservation]:
        """Stream the population's per-domain observations, one at a time.

        The streaming core of :meth:`scan`: yields each domain's capture
        as soon as it is resolved, holding no dataset — which is what lets
        a columnar consumer fold observations into fixed-width columns
        chunk by chunk instead of materializing the whole capture.

        Glue elision draws come from :func:`repro.scan.batch.elided_glue`,
        one keyed draw per domain, so whether a record's glue is elided
        depends only on (seed, domain, scan, the record's place among the
        answer's glue-carrying records) — scanning a shard of the
        population captures exactly what a full scan would for the same
        domains, which the parallel runner's merge relies on.
        """
        resolver = StubResolver(
            self.internet.zones, faults=self.faults, fault_epoch=scan_index
        )
        for truth in self.internet.domains:
            observation = DomainObservation(domain=truth.name)
            try:
                answer = resolver.resolve_mx(truth.name)
            except NXDomain:
                observation.nxdomain = True
                yield observation
                continue
            except DNSTimeout:
                observation.timeout = True
                yield observation
                continue
            except ServFail:
                observation.servfail = True
                yield observation
                continue
            addresses: List[Optional[IPv4Address]] = [
                answer.additional.get(mx.exchange) for mx in answer.records
            ]
            carrying = sum(1 for address in addresses if address is not None)
            if carrying and self.glue_elision_rate > 0:
                assert self.seed is not None
                dropped = iter(
                    elided_glue(
                        self.seed,
                        truth.name,
                        {scan_index: carrying},
                        self.glue_elision_rate,
                    )[scan_index]
                )
                addresses = [
                    None if address is None or next(dropped) else address
                    for address in addresses
                ]
            for mx, address in zip(answer.records, addresses):
                observation.mx.append(
                    MXObservation(
                        preference=mx.preference,
                        exchange=mx.exchange,
                        address=address,
                    )
                )
            yield observation

    def scan(self, scan_index: int) -> DNSScanDataset:
        """Capture the population's DNS state as a materialized dataset."""
        dataset = DNSScanDataset(scan_index=scan_index)
        for observation in self.iter_observations(scan_index):
            dataset.add(observation)
        return dataset

    def parallel_resolve(self, dataset: DNSScanDataset) -> int:
        """Re-resolve MX entries captured without an address.

        This is the paper's "parallel scanner": for every MX record whose
        reply "only contains the domain name of the mail server but not its
        IP address", issue the missing A query.  Returns how many entries
        were repaired.  Dangling exchanges (no A record anywhere) stay
        unresolved — those are genuine misconfigurations.

        The parallel scanner runs after the sweep, outside the scan's
        fault window, so it resolves against a healthy resolver — faults
        belong to the capture, not to the repair pass.
        """
        resolver = StubResolver(self.internet.zones)
        repaired = 0
        for observation in dataset:
            for record in observation.mx:
                if record.resolved:
                    continue
                try:
                    record.address = resolver.resolve_address(record.exchange)
                    repaired += 1
                except (NXDomain, ServFail):
                    continue
        return repaired


class SMTPScanner:
    """SYN-scans a list of addresses on TCP/25 (the banner grab).

    With a :class:`~repro.faults.model.FaultPlan` attached, addresses may
    additionally appear down during a scan — a host downtime window or a
    port-25 flap, drawn per ``(address, scan index)``.  A SYN probe cannot
    distinguish the two, and neither can the paper's pipeline; that is
    exactly why the measurement is repeated two months later.
    """

    def __init__(
        self,
        internet: SyntheticInternet,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.internet = internet
        self.faults = faults

    def scan(
        self,
        scan_index: int,
        addresses: Optional[Iterable[IPv4Address]] = None,
    ) -> SMTPScanDataset:
        """Probe ``addresses`` (default: the population's full mail space)."""
        if addresses is None:
            addresses = self.internet.all_mail_addresses()
        dataset = SMTPScanDataset(scan_index=scan_index)
        for address in addresses:
            dataset.probed += 1
            if not self.internet.is_listening(address, scan_index):
                continue
            if self.faults is not None and self.faults.smtp_down(
                str(address), scan_index
            ):
                continue
            dataset.add(address)
        return dataset
