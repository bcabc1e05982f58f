"""RFC 5321 MX-set handling.

Ordering and target-selection rules for mail exchangers: sort by preference
(lowest first), break ties deterministically, and resolve each exchange to an
address through the glue in the MX answer's additional section.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..net.address import IPv4Address
from .records import MXRecord
from .resolver import DNSError, MXAnswer, StubResolver


@dataclass(frozen=True)
class MailExchanger:
    """A fully resolved mail exchanger candidate."""

    preference: int
    hostname: str
    address: Optional[IPv4Address]

    @property
    def resolvable(self) -> bool:
        return self.address is not None


def sort_mx(records: List[MXRecord]) -> List[MXRecord]:
    """Order MX records per RFC 5321: ascending preference, name tiebreak."""
    return sorted(records, key=lambda r: (r.preference, r.exchange))


def shuffle_equal_preferences(
    exchangers: List["MailExchanger"], rng
) -> List["MailExchanger"]:
    """Randomize order within equal-preference groups (RFC 5321 §5.1).

    "If there are multiple destinations with the same preference ... the
    sender-SMTP MUST randomize them to spread the load."  Groups stay in
    ascending-preference order; only their internal order is shuffled.
    """
    result: List[MailExchanger] = []
    group: List[MailExchanger] = []
    current: int = None
    for exchanger in exchangers:
        if current is None or exchanger.preference == current:
            group.append(exchanger)
            current = exchanger.preference
        else:
            rng.shuffle(group)
            result.extend(group)
            group = [exchanger]
            current = exchanger.preference
    if group:
        rng.shuffle(group)
        result.extend(group)
    return result


def resolve_exchangers(
    resolver: StubResolver, domain: str
) -> List[MailExchanger]:
    """Resolve a domain's complete, ordered mail-exchanger list.

    Raises whatever DNS error the MX query raises (NXDomain / ServFail).
    The resolver already tried each exchange's A query for the answer's
    additional section, so an exchange missing from it failed to resolve:
    it is kept with ``address=None`` so callers can observe partial
    misconfiguration.
    """
    answer: MXAnswer = resolver.resolve_mx(domain)
    return [
        MailExchanger(
            preference=mx.preference,
            hostname=mx.exchange,
            address=answer.additional.get(mx.exchange),
        )
        for mx in sort_mx(answer.records)
    ]


def implicit_mx(
    resolver: StubResolver, domain: str
) -> Optional[MailExchanger]:
    """RFC 5321 §5.1 implicit MX: fall back to the domain's own A record.

    Returns ``None`` when the domain has no A record either.
    """
    try:
        address = resolver.resolve_address(domain)
    except DNSError:
        return None
    return MailExchanger(preference=0, hostname=domain, address=address)
