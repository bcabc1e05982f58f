"""Mail messages and delivery envelopes.

The envelope — not the message headers — is what SMTP routing and greylisting
operate on: greylisting keys on ``(client IP, envelope sender, envelope
recipient)`` and explicitly ignores the message body (the paper exploits this
to rule out the "second spam task" confound in §V.A).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

_message_ids = itertools.count(1)


class AddressSyntaxError(ValueError):
    """Raised for malformed email addresses."""


def validate_address(address: str) -> str:
    """Validate and canonicalize an email address (pragmatic subset).

    The domain is case-normalized; the local part's case is preserved
    (RFC 5321 treats local parts as case-sensitive).  An address that is
    already canonical is returned as the same object.

    >>> validate_address("Bob@Foo.NET")
    'Bob@foo.net'
    """
    # This sits on the hot path of every RCPT decision, simulated and
    # served.  One C-level split() both strips the address and finds
    # inner whitespace: it splits on the same characters strip() removes
    # (str.isspace), and a string without any comes back as itself.
    words = address.split()
    stripped = words[0] if len(words) == 1 else address.strip()
    local, _, domain = stripped.partition("@")
    if not local or "@" in domain or "." not in domain:
        raise AddressSyntaxError(f"malformed address {stripped!r}")
    if len(words) != 1:
        raise AddressSyntaxError(f"whitespace in address {stripped!r}")
    lowered = domain.lower()
    if lowered == domain:
        return stripped
    return f"{local}@{lowered}"


def domain_of(address: str) -> str:
    """Extract the domain part of a validated address."""
    return address.rsplit("@", 1)[1]


@dataclass
class Message:
    """An email message: headers are opaque, the body is a plain string.

    ``campaign_id`` tags spam-campaign membership so experiments can verify
    (as the paper did via unprotected addresses) that all delivery attempts
    in a run belong to a single spam task.
    """

    sender: str
    recipients: List[str]
    subject: str = ""
    body: str = ""
    campaign_id: Optional[str] = None
    message_id: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        self.sender = validate_address(self.sender)
        if not self.recipients:
            raise AddressSyntaxError("message needs at least one recipient")
        self.recipients = [validate_address(r) for r in self.recipients]

    @property
    def size(self) -> int:
        """Approximate wire size in bytes."""
        return len(self.subject) + len(self.body) + 256

    def __repr__(self) -> str:
        return (
            f"Message(id={self.message_id}, from={self.sender!r}, "
            f"to={len(self.recipients)} rcpt)"
        )


@dataclass(frozen=True)
class Envelope:
    """One (sender, recipient) delivery unit extracted from a message.

    SMTP delivers per-recipient; an N-recipient message becomes N envelopes
    that may succeed or fail independently.
    """

    sender: str
    recipient: str
    message_id: int
    campaign_id: Optional[str] = None
