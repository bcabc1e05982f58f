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
    """A frozen set of sender domains consulted before greylisting applies.

    ``empty`` says whether any domain is listed: the policy probes only a
    non-empty whitelist, since an empty one matches nothing.
    """

    __slots__ = ("_sender_domains", "empty")

    def __init__(self, sender_domains: Iterable[str] = ()) -> None:
        self._sender_domains: FrozenSet[str] = frozenset(
            domain.strip().lower().rstrip(".") for domain in sender_domains
        )
        self.empty = not self._sender_domains

    def matches(self, client: IPv4Address, sender: str) -> bool:
        """Whether ``sender``'s domain is listed (``client`` is not consulted)."""
        # Stored domains are lowercased and stripped of a trailing root
        # dot.  The greylist policy passes canonical senders, whose domain
        # is lowercased already but may end in that dot; the probe is
        # lowercased anyway, so a direct caller's raw ``User@Gmail.com``
        # still matches ``gmail.com`` (domains are case-insensitive per
        # RFC 1035).
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
