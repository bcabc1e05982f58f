"""Sender-domain whitelists for greylisting.

Postgrey ships a default whitelist of big senders (notably the large webmail
providers) precisely because their multi-IP retry farms interact badly with
triplet matching — the paper removes that default whitelist to measure the
raw provider behaviour in Table III, and §VI concludes whitelisting them is
essential.  We model whitelisting by sender domain, fixed when the list is
built.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from ..net.address import IPv4Address
from ..smtp.message import domain_of


class Whitelist:
    """A frozen set of sender domains consulted before greylisting applies."""

    __slots__ = ("_sender_domains",)

    def __init__(self, sender_domains: Iterable[str] = ()) -> None:
        self._sender_domains: FrozenSet[str] = frozenset(
            domain.strip().lower().rstrip(".") for domain in sender_domains
        )

    def matches(self, client: IPv4Address, sender: str) -> bool:
        """Whether ``sender``'s domain is listed (``client`` is not consulted)."""
        # Stored domains are lowercased; the probe must be too, or
        # ``User@Gmail.com`` misses a ``gmail.com`` entry (domains are
        # case-insensitive per RFC 1035, and senders arrive raw here —
        # before triplet canonicalization).
        return domain_of(sender).lower().rstrip(".") in self._sender_domains

    def __repr__(self) -> str:
        return f"Whitelist(domains={len(self._sender_domains)})"


# The big providers Postgrey's stock whitelist covers; used by the Table III
# experiment (removed) and the deployment simulation (installed).
DEFAULT_WHITELISTED_DOMAINS = (
    "gmail.com",
    "yahoo.co.uk",
    "hotmail.com",
    "qq.com",
    "mail.ru",
    "yandex.com",
    "mail.com",
    "gmx.com",
    "aol.com",
    "india.com",
)


def default_provider_whitelist() -> Whitelist:
    """Build the Postgrey-style stock whitelist of big webmail senders."""
    return Whitelist(DEFAULT_WHITELISTED_DOMAINS)
