"""RFC-compliant SMTP client.

The client walks the full delivery flow: resolve the recipient domain's MX
set in priority order (falling back to the implicit MX), connect to each
exchanger until one accepts the connection, then run the
HELO → MAIL → RCPT → DATA dialogue.  Per-envelope outcomes are returned as
:class:`AttemptResult` values the MTA queue manager acts on.

Bots reuse pieces of this client but override MX selection and retry logic
(see :mod:`repro.botnet`); that contrast — compliant client vs bot dialect —
is the mechanism both nolisting and greylisting exploit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..dns.mxutil import (
    MailExchanger,
    implicit_mx,
    resolve_exchangers,
    shuffle_equal_preferences,
)
from ..dns.resolver import DNSError, NXDomain, StubResolver
from ..net.address import IPv4Address
from ..net.host import SMTP_PORT, ConnectionRefused, HostUnreachable
from ..net.network import VirtualInternet
from .message import Message
from .replies import Reply


class AttemptOutcome(enum.Enum):
    """How a single delivery attempt ended."""

    DELIVERED = "delivered"            # 250 after DATA
    DEFERRED = "deferred"              # 4yz anywhere — retry later
    BOUNCED = "bounced"                # 5yz anywhere — permanent failure
    NO_ROUTE = "no-route"              # every MX unreachable/refused
    DNS_FAILURE = "dns-failure"        # NXDOMAIN / SERVFAIL / no usable MX


@dataclass
class AttemptResult:
    """Outcome of one end-to-end delivery attempt for one envelope."""

    outcome: AttemptOutcome
    reply: Optional[Reply] = None
    exchanger: Optional[MailExchanger] = None

    @property
    def succeeded(self) -> bool:
        return self.outcome is AttemptOutcome.DELIVERED


class SMTPClient:
    """A compliant sender bound to one source IP address."""

    def __init__(
        self,
        internet: VirtualInternet,
        resolver: StubResolver,
        source_address: IPv4Address,
        helo_name: str = "client.example.net",
        rng=None,
    ) -> None:
        self.internet = internet
        self.resolver = resolver
        self.source_address = source_address
        self.helo_name = helo_name
        #: When set, equal-preference MX groups are randomized per RFC 5321
        #: §5.1 ("the sender-SMTP MUST randomize them to spread the load").
        self.rng = rng

    # ------------------------------------------------------------------
    # MX candidate selection (override point for bots)
    # ------------------------------------------------------------------
    def candidate_exchangers(self, domain: str) -> List[MailExchanger]:
        """Resolve the ordered MX candidates for a recipient domain.

        RFC 5321: use the MX set ordered by preference; when the domain has
        no MX records, fall back to the implicit MX (the domain's A record).
        """
        try:
            exchangers = resolve_exchangers(self.resolver, domain)
        except NXDomain:
            return []
        except DNSError:
            return []
        if not exchangers:
            implicit = implicit_mx(self.resolver, domain)
            return [implicit] if implicit is not None else []
        usable = [mx for mx in exchangers if mx.resolvable]
        if self.rng is not None:
            usable = shuffle_equal_preferences(usable, self.rng)
        return usable

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(
        self,
        message: Message,
        recipient: str,
        source_override: Optional[IPv4Address] = None,
    ) -> AttemptResult:
        """Attempt to deliver ``message`` to ``recipient`` once.

        Walks the MX candidates in priority order, moving to the next host
        on connection failure (RFC 5321 §5.1: the client MUST try each
        address in order).  SMTP-level rejections terminate the walk: a
        server that answered authoritatively speaks for the domain.
        """
        source = source_override or self.source_address
        domain = recipient.rsplit("@", 1)[1]
        candidates = self.candidate_exchangers(domain)
        if not candidates:
            return AttemptResult(outcome=AttemptOutcome.DNS_FAILURE)
        for exchanger in candidates:
            assert exchanger.address is not None
            try:
                connection = self.internet.connect(
                    source, exchanger.address, SMTP_PORT
                )
            except (ConnectionRefused, HostUnreachable):
                continue
            result = self._dialogue(connection.session, message, recipient)
            result.exchanger = exchanger
            return result
        return AttemptResult(outcome=AttemptOutcome.NO_ROUTE)

    def _dialogue(
        self, session, message: Message, recipient: str
    ) -> AttemptResult:
        """Run the SMTP command sequence against an open session."""
        if not session.banner.is_positive:
            outcome = (
                AttemptOutcome.DEFERRED
                if session.banner.is_transient_failure
                else AttemptOutcome.BOUNCED
            )
            return AttemptResult(outcome, session.banner)
        for reply in (
            session.ehlo(self.helo_name),
            session.mail_from(message.sender),
            session.rcpt_to(recipient),
        ):
            if not reply.is_positive:
                session.quit()
                outcome = (
                    AttemptOutcome.DEFERRED
                    if reply.is_transient_failure
                    else AttemptOutcome.BOUNCED
                )
                return AttemptResult(outcome, reply)
        reply = session.data(message)
        session.quit()
        if reply.is_positive:
            return AttemptResult(AttemptOutcome.DELIVERED, reply)
        outcome = (
            AttemptOutcome.DEFERRED
            if reply.is_transient_failure
            else AttemptOutcome.BOUNCED
        )
        return AttemptResult(outcome, reply)

    def __repr__(self) -> str:
        return f"SMTPClient(source={self.source_address}, helo={self.helo_name!r})"
