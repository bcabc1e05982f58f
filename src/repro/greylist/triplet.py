"""Greylisting triplets.

Greylisting keys deliveries on the triplet ``(client IP, envelope sender,
envelope recipient)``.  Two details matter for the paper's experiments:

* the *message itself is irrelevant* — a different message with the same
  triplet matches the existing entry (the confound ruled out in §V.A); and
* some deployments key on the client's /24 network instead of the exact IP,
  to tolerate webmail farms that rotate between nearby addresses (Table III
  shows five of ten providers switching IPs mid-delivery).
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

    def network_key(self) -> "Triplet":
        """Coarsen the client part to its /24 network base address."""
        base = IPv4Address(self.client.value & 0xFFFFFF00)
        return Triplet(base, self.sender, self.recipient)

    def __str__(self) -> str:
        return f"({self.client}, {self.sender}, {self.recipient})"
