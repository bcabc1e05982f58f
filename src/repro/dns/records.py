"""DNS resource records.

Only the record types the paper's measurement needs are modelled: ``A``
(address) and ``MX`` (mail exchanger).  Records are immutable value objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.address import IPv4Address


class DNSRecordError(ValueError):
    """Raised for malformed records."""


def normalize_name(name: str) -> str:
    """Canonicalize a domain name: lowercase, no trailing dot.

    >>> normalize_name("Foo.NET.")
    'foo.net'
    """
    name = name.strip().lower().rstrip(".")
    if not name:
        raise DNSRecordError("empty domain name")
    for label in name.split("."):
        if not label or len(label) > 63:
            raise DNSRecordError(f"invalid label in domain name {name!r}")
    if len(name) > 253:
        raise DNSRecordError(f"domain name too long: {name!r}")
    return name


@dataclass(frozen=True)
class ARecord:
    """``name IN A address``"""

    name: str
    address: IPv4Address
    ttl: int = 3600

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        if self.ttl < 0:
            raise DNSRecordError("TTL must be non-negative")

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} IN A {self.address}"


@dataclass(frozen=True)
class MXRecord:
    """``name IN MX preference exchange``

    Lower ``preference`` means higher priority (RFC 5321 §5.1); the exchange
    is a domain name that must itself resolve via an A record.
    """

    name: str
    preference: int
    exchange: str
    ttl: int = 3600

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", normalize_name(self.name))
        object.__setattr__(self, "exchange", normalize_name(self.exchange))
        if not 0 <= self.preference <= 65535:
            raise DNSRecordError(
                f"MX preference out of range: {self.preference}"
            )
        if self.ttl < 0:
            raise DNSRecordError("TTL must be non-negative")

    def __str__(self) -> str:
        return f"{self.name} {self.ttl} IN MX {self.preference} {self.exchange}"
