"""Greylisting key strategies (the variant space of Sochor's studies).

The paper's related work ([32]) "discusses different variants of
greylisting"; deployments differ mainly in *what they key on*:

* ``FULL_TRIPLET`` — classic Postgrey: (client IP, sender, recipient);
* ``CLIENT_NET_TRIPLET`` — same, with the client coarsened to its /24
  (tolerates small sender farms);
* ``SENDER_DOMAIN`` — (client IP, sender *domain*, recipient): tolerates
  per-message sender localparts from one origin (mailing lists, VERP);
* ``CLIENT_ONLY`` — pure IP greylisting: any retry from the IP after the
  delay whitelists the whole IP.

Each strategy is a pure function from the observed (client, sender,
recipient) to the stored key; the policy engine is otherwise identical,
which is exactly why the variants are comparable.  The observed addresses
are canonical (validated where they entered the program), so every key is
built without validating them again.
"""

from __future__ import annotations

import enum

from ..net.address import IPv4Address
from ..smtp.message import domain_of
from .triplet import Triplet, _trusted_triplet

#: Sentinel localpart used when a strategy erases the sender or recipient.
_WILDCARD = "any"

#: The erased sender and recipient of ``CLIENT_ONLY`` (canonical already).
_ANY_ADDRESS = f"{_WILDCARD}@{_WILDCARD}.invalid"


class KeyStrategy(enum.Enum):
    """What the greylisting database keys on."""

    FULL_TRIPLET = "full-triplet"
    CLIENT_NET_TRIPLET = "client-net-triplet"
    SENDER_DOMAIN = "sender-domain"
    CLIENT_ONLY = "client-only"


def derive_key(
    strategy: KeyStrategy,
    client: IPv4Address,
    sender: str,
    recipient: str,
) -> Triplet:
    """Map an observation to its database key under ``strategy``.

    ``sender`` and ``recipient`` must be canonical: exactly what
    :func:`~repro.smtp.message.validate_address` returns for them.
    """
    if strategy is KeyStrategy.FULL_TRIPLET:
        return _trusted_triplet(client, sender, recipient)
    if strategy is KeyStrategy.CLIENT_NET_TRIPLET:
        return _trusted_triplet(client, sender, recipient).network_key()
    if strategy is KeyStrategy.SENDER_DOMAIN:
        # A canonical sender's domain is lower-case, so this is canonical.
        return _trusted_triplet(
            client, f"{_WILDCARD}@{domain_of(sender)}", recipient
        )
    if strategy is KeyStrategy.CLIENT_ONLY:
        return _trusted_triplet(client, _ANY_ADDRESS, _ANY_ADDRESS)
    raise ValueError(f"unknown key strategy {strategy!r}")
