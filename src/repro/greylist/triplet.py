"""Greylisting triplets.

Greylisting keys deliveries on the triplet ``(client IP, envelope sender,
envelope recipient)``.  Two details matter for the paper's experiments:

* the *message itself is irrelevant* — a different message with the same
  triplet matches the existing entry (the confound ruled out in §V.A); and
* some deployments key on the client's /24 network instead of the exact IP,
  to tolerate webmail farms that rotate between nearby addresses (Table III
  shows five of ten providers switching IPs mid-delivery).

Addresses are validated once, where they enter the program: the SMTP
session, the policy daemon's request, a generated deployment message.
``Triplet(...)`` validates its addresses, for callers that hold raw ones
(snapshot load, the SQLite scan).  The per-decision key derivation
(:func:`~repro.greylist.keying.derive_key`) holds canonical ones and
builds its key with :func:`_trusted_triplet`, which validates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..net.address import IPv4Address
from ..smtp.message import validate_address


@dataclass(frozen=True, slots=True)
class Triplet:
    """The greylisting key.

    ``slots`` matters here: every RCPT command allocates one of these and
    the triplet database keys millions of lookups on them.
    """

    client: IPv4Address
    sender: str
    recipient: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "sender", validate_address(self.sender))
        object.__setattr__(self, "recipient", validate_address(self.recipient))

    def __hash__(self) -> int:
        # Every store probe hashes its key: hash the client's integer
        # directly instead of calling the address's generated __hash__.
        return hash((self.client.value, self.sender, self.recipient))

    def network_key(self) -> "Triplet":
        """Coarsen the client part to its /24 network base address."""
        base = IPv4Address(self.client.value & 0xFFFFFF00)
        return _trusted_triplet(base, self.sender, self.recipient)

    def __str__(self) -> str:
        return f"({self.client}, {self.sender}, {self.recipient})"


_new_triplet = object.__new__
_set_client = vars(Triplet)["client"].__set__
_set_sender = vars(Triplet)["sender"].__set__
_set_recipient = vars(Triplet)["recipient"].__set__


def _trusted_triplet(
    client: IPv4Address, sender: str, recipient: str
) -> Triplet:
    """A triplet from canonical addresses, built without re-validating them.

    ``sender`` and ``recipient`` must be exactly what
    :func:`~repro.smtp.message.validate_address` returns for them; the
    result then equals, and hashes like, ``Triplet(client, sender,
    recipient)``.  The slot setters bypass the frozen ``__setattr__``,
    as the generated ``__init__`` does.  Besides ``derive_key``, only
    :meth:`Triplet.network_key` uses it: a triplet's addresses are
    canonical whichever constructor built it.
    """
    triplet = _new_triplet(Triplet)
    _set_client(triplet, client)
    _set_sender(triplet, sender)
    _set_recipient(triplet, recipient)
    return triplet
