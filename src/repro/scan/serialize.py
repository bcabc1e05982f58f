"""Scan-dataset serialization.

The paper consumed its scans as downloadable files from scans.io; this
module gives our captures the same shape: plain-text dump/load for the
DNS-ANY and SMTP banner-grab datasets, so the detection pipeline can run
offline from files — and so captures can be archived, diffed and replayed
(the two-months-apart protocol is literally a diff of two files).
"""

from __future__ import annotations

from typing import List

from ..net.address import IPv4Address
from .datasets import (
    DNSScanDataset,
    DomainObservation,
    MXObservation,
    SMTPScanDataset,
)

DNS_HEADER = "# repro-dns-scan v1"
SMTP_HEADER = "# repro-smtp-scan v1"


class ScanFormatError(ValueError):
    """Raised for malformed scan files."""


# ----------------------------------------------------------------------
# DNS captures
# ----------------------------------------------------------------------

def dump_dns_scan(dataset: DNSScanDataset) -> str:
    """One line per domain::

        <domain> ok <pref>:<exchange>:<ip|-> ...
        <domain> nxdomain
        <domain> servfail
        <domain> timeout
        <domain> nomx

    ``servfail`` and ``timeout`` are transient failures the two-scan
    protocol falls back on the other scan for; ``nomx`` is an
    authoritative answer without MX records.
    """
    lines: List[str] = [DNS_HEADER, f"# scan-index {dataset.scan_index}"]
    for domain in sorted(dataset.observations):
        observation = dataset.observations[domain]
        if observation.nxdomain:
            lines.append(f"{domain} nxdomain")
        elif observation.servfail:
            lines.append(f"{domain} servfail")
        elif observation.timeout:
            lines.append(f"{domain} timeout")
        elif not observation.mx:
            lines.append(f"{domain} nomx")
        else:
            records = " ".join(
                f"{record.preference}:{record.exchange}:"
                f"{record.address if record.address is not None else '-'}"
                for record in observation.mx
            )
            lines.append(f"{domain} ok {records}")
    return "\n".join(lines) + "\n"


def load_dns_scan(text: str) -> DNSScanDataset:
    """Parse the :func:`dump_dns_scan` format."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != DNS_HEADER:
        raise ScanFormatError("missing or unknown DNS scan header")
    scan_index = 0
    dataset = None
    for line_number, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if line.startswith("# scan-index"):
            scan_index = int(line.split()[-1])
            continue
        if not line or line.startswith("#"):
            continue
        if dataset is None:
            dataset = DNSScanDataset(scan_index=scan_index)
        parts = line.split()
        if len(parts) < 2:
            raise ScanFormatError(f"malformed DNS scan line {line_number}")
        domain, status, *records = parts
        observation = DomainObservation(domain=domain)
        if status == "nxdomain":
            observation.nxdomain = True
        elif status == "servfail":
            observation.servfail = True
        elif status == "timeout":
            observation.timeout = True
        elif status == "nomx":
            pass
        elif status == "ok":
            for token in records:
                pref, _, rest = token.partition(":")
                exchange, _, address = rest.rpartition(":")
                if not exchange:
                    raise ScanFormatError(
                        f"malformed MX token {token!r} on line {line_number}"
                    )
                observation.mx.append(
                    MXObservation(
                        preference=int(pref),
                        exchange=exchange,
                        address=(
                            None
                            if address == "-"
                            else IPv4Address.parse(address)
                        ),
                    )
                )
        else:
            raise ScanFormatError(
                f"unknown status {status!r} on line {line_number}"
            )
        dataset.add(observation)
    if dataset is None:
        dataset = DNSScanDataset(scan_index=scan_index)
    return dataset


# ----------------------------------------------------------------------
# SMTP captures
# ----------------------------------------------------------------------

def dump_smtp_scan(dataset: SMTPScanDataset) -> str:
    """One listening address per line."""
    lines = [
        SMTP_HEADER,
        f"# scan-index {dataset.scan_index}",
        f"# probed {dataset.probed}",
    ]
    lines.extend(str(address) for address in sorted(dataset.listening))
    return "\n".join(lines) + "\n"


def load_smtp_scan(text: str) -> SMTPScanDataset:
    """Parse the :func:`dump_smtp_scan` format."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != SMTP_HEADER:
        raise ScanFormatError("missing or unknown SMTP scan header")
    dataset = SMTPScanDataset(scan_index=0)
    for line_number, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if line.startswith("# scan-index"):
            dataset.scan_index = int(line.split()[-1])
            continue
        if line.startswith("# probed"):
            dataset.probed = int(line.split()[-1])
            continue
        if not line or line.startswith("#"):
            continue
        dataset.add(IPv4Address.parse(line))
    return dataset
