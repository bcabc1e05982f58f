"""Server-side SMTP session state machine with pluggable policies.

The :class:`SMTPSession` implements the RFC 5321 command sequence
(HELO/EHLO → MAIL FROM → RCPT TO → DATA → QUIT) as an explicit state
machine.  Site policy — greylisting, DNSBL lookups — is injected via
:class:`ConnectionPolicy` hooks so the same engine serves the plain,
nolisted-secondary and greylisted server configurations used in the
experiments.

Every accepted message and every policy rejection is appended to the owning
:class:`SMTPServer`'s log, which is what the measurement harness analyses.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..net.address import IPv4Address
from ..sim.clock import Clock
from . import replies
from .message import AddressSyntaxError, Envelope, Message, validate_address
from .replies import Reply


class SessionState(enum.Enum):
    """States of the server-side SMTP dialogue."""

    CONNECTED = "connected"     # banner sent, waiting for HELO/EHLO
    GREETED = "greeted"         # HELO done, waiting for MAIL
    MAIL = "mail"               # MAIL FROM accepted, waiting for RCPT
    RCPT = "rcpt"               # >=1 RCPT accepted, waiting for DATA/RCPT
    DATA = "data"               # inside message text
    CLOSED = "closed"


@dataclass
class PolicyDecision:
    """Outcome of a policy hook: accept, or reject with a specific reply."""

    accept: bool
    reply: Optional[Reply] = None

    @classmethod
    def ok(cls) -> "PolicyDecision":
        return cls(accept=True)

    @classmethod
    def reject(cls, reply: Reply) -> "PolicyDecision":
        return cls(accept=False, reply=reply)


class ConnectionPolicy:
    """Site policy hooks; the default accepts everything.

    Subclasses (e.g. :class:`repro.greylist.policy.GreylistPolicy` adapters)
    override individual hooks.  Hooks run *pre-acceptance* in the paper's
    terminology — before the message body is accepted.
    """

    def on_connect(self, client: IPv4Address) -> PolicyDecision:
        return PolicyDecision.ok()

    def on_helo(self, client: IPv4Address, helo_name: str) -> PolicyDecision:
        return PolicyDecision.ok()

    def on_mail_from(self, client: IPv4Address, sender: str) -> PolicyDecision:
        return PolicyDecision.ok()

    def on_rcpt_to(
        self, client: IPv4Address, sender: str, recipient: str
    ) -> PolicyDecision:
        return PolicyDecision.ok()

    def on_message(
        self, client: IPv4Address, envelope: Envelope, message: Message
    ) -> PolicyDecision:
        return PolicyDecision.ok()


class CompositePolicy(ConnectionPolicy):
    """Chains several policies; the first rejection wins at every hook.

    Real servers stack pre-acceptance tests (DNSBL lookup, then
    greylisting, ...) exactly this way — and the order matters, because a
    DNSBL hit should spare the greylist a triplet insertion.
    """

    def __init__(self, policies: List[ConnectionPolicy]) -> None:
        if not policies:
            raise ValueError("composite policy needs at least one policy")
        self.policies = list(policies)

    def _first_reject(self, invoke) -> PolicyDecision:
        for policy in self.policies:
            decision = invoke(policy)
            if not decision.accept:
                return decision
        return PolicyDecision.ok()

    def on_connect(self, client: IPv4Address) -> PolicyDecision:
        return self._first_reject(lambda p: p.on_connect(client))

    def on_helo(self, client: IPv4Address, helo_name: str) -> PolicyDecision:
        return self._first_reject(lambda p: p.on_helo(client, helo_name))

    def on_mail_from(self, client: IPv4Address, sender: str) -> PolicyDecision:
        return self._first_reject(lambda p: p.on_mail_from(client, sender))

    def on_rcpt_to(
        self, client: IPv4Address, sender: str, recipient: str
    ) -> PolicyDecision:
        return self._first_reject(
            lambda p: p.on_rcpt_to(client, sender, recipient)
        )

    def on_message(
        self, client: IPv4Address, envelope: Envelope, message: Message
    ) -> PolicyDecision:
        return self._first_reject(
            lambda p: p.on_message(client, envelope, message)
        )


@dataclass
class DeliveryRecord:
    """One envelope's fate at this server, as recorded in the server log."""

    timestamp: float
    client: IPv4Address
    sender: str
    recipient: str
    accepted: bool
    reply_code: int
    stage: str                      # which hook decided: rcpt / data / ...
    message_id: Optional[int] = None
    campaign_id: Optional[str] = None


@dataclass
class SMTPServerStats:
    connections: int = 0
    messages_accepted: int = 0
    envelopes_accepted: int = 0
    envelopes_rejected: int = 0
    protocol_errors: int = 0
    #: sessions torn down mid-dialogue (client vanished / connection reset)
    sessions_aborted: int = 0


class SMTPServer:
    """A mail server: session factory + structured log."""

    def __init__(
        self,
        hostname: str,
        clock: Clock,
        policy: Optional[ConnectionPolicy] = None,
        local_domains: Optional[List[str]] = None,
    ) -> None:
        self.hostname = hostname
        self.clock = clock
        self.policy = policy if policy is not None else ConnectionPolicy()
        self.local_domains = [d.lower() for d in (local_domains or [])]
        self.log: List[DeliveryRecord] = []
        self.stats = SMTPServerStats()

    # ------------------------------------------------------------------
    # Listener-factory protocol (plugs into VirtualHost.listen)
    # ------------------------------------------------------------------
    def session_factory(self, client: IPv4Address) -> "SMTPSession":
        self.stats.connections += 1
        return SMTPSession(self, client)

    # ------------------------------------------------------------------
    # Relay control (pre-greylisting, as noted in §II of the paper:
    # servers refuse recipients they do not serve before greylisting)
    # ------------------------------------------------------------------
    def recipient_is_local(self, recipient: str) -> bool:
        if not self.local_domains:
            return True
        domain = recipient.rsplit("@", 1)[1]
        return domain in self.local_domains

    # ------------------------------------------------------------------
    # Log plumbing
    # ------------------------------------------------------------------
    def record(
        self,
        client: IPv4Address,
        sender: str,
        recipient: str,
        accepted: bool,
        reply_code: int,
        stage: str,
        message_id: Optional[int] = None,
        campaign_id: Optional[str] = None,
    ) -> None:
        self.log.append(
            DeliveryRecord(
                timestamp=self.clock.now,
                client=client,
                sender=sender,
                recipient=recipient,
                accepted=accepted,
                reply_code=reply_code,
                stage=stage,
                message_id=message_id,
                campaign_id=campaign_id,
            )
        )
        if accepted:
            self.stats.envelopes_accepted += 1
        else:
            self.stats.envelopes_rejected += 1

    def __repr__(self) -> str:
        return (
            f"SMTPServer({self.hostname!r}, accepted="
            f"{self.stats.messages_accepted})"
        )


class SMTPSession:
    """One client connection's dialogue with an :class:`SMTPServer`."""

    def __init__(self, server: SMTPServer, client: IPv4Address) -> None:
        self.server = server
        self.client = client
        self.state = SessionState.CONNECTED
        self.helo_name: Optional[str] = None
        self.sender: Optional[str] = None
        self.recipients: List[str] = []
        decision = server.policy.on_connect(client)
        if decision.accept:
            self.banner = replies.ready(server.hostname)
        else:
            self.banner = decision.reply or Reply(
                replies.CODE_SERVICE_UNAVAILABLE, "Service not available"
            )
            self.state = SessionState.CLOSED

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def helo(self, name: str) -> Reply:
        return self._greet(name, extended=False)

    def ehlo(self, name: str) -> Reply:
        return self._greet(name, extended=True)

    def _greet(self, name: str, extended: bool) -> Reply:
        if self.state is SessionState.CLOSED:
            return replies.bad_sequence("connection closed")
        decision = self.server.policy.on_helo(self.client, name)
        if not decision.accept:
            return decision.reply or Reply(replies.CODE_SERVICE_UNAVAILABLE)
        self.helo_name = name
        self.state = SessionState.GREETED
        greeting = f"{self.server.hostname} Hello {name}"
        if extended:
            greeting += " [PIPELINING SIZE 10485760]"
        return replies.ok(greeting)

    def mail_from(self, sender: str) -> Reply:
        if self.state not in (SessionState.GREETED, SessionState.MAIL):
            if self.state is SessionState.CONNECTED:
                # RFC 5321 requires EHLO first; many servers tolerate it,
                # ours is strict (it helps expose bot dialects).
                self.server.stats.protocol_errors += 1
                return replies.bad_sequence("HELO/EHLO")
            return replies.bad_sequence("MAIL")
        try:
            sender = validate_address(sender)
        except AddressSyntaxError:
            self.server.stats.protocol_errors += 1
            return Reply(replies.CODE_PARAM_SYNTAX_ERROR, "bad sender address")
        decision = self.server.policy.on_mail_from(self.client, sender)
        if not decision.accept:
            return decision.reply or Reply(replies.CODE_MAILBOX_BUSY)
        self.sender = sender
        self.recipients = []
        self.state = SessionState.MAIL
        return replies.ok(f"2.1.0 <{sender}> sender ok")

    def rcpt_to(self, recipient: str) -> Reply:
        if self.state not in (SessionState.MAIL, SessionState.RCPT):
            self.server.stats.protocol_errors += 1
            return replies.bad_sequence("MAIL FROM")
        try:
            recipient = validate_address(recipient)
        except AddressSyntaxError:
            self.server.stats.protocol_errors += 1
            return Reply(replies.CODE_PARAM_SYNTAX_ERROR, "bad recipient address")
        assert self.sender is not None
        # Relay control happens before greylisting (paper §II).
        if not self.server.recipient_is_local(recipient):
            reply = Reply(replies.CODE_USER_NOT_LOCAL, "relaying denied")
            self.server.record(
                self.client, self.sender, recipient, False, reply.code, "relay"
            )
            return reply
        decision = self.server.policy.on_rcpt_to(
            self.client, self.sender, recipient
        )
        if not decision.accept:
            reply = decision.reply or Reply(replies.CODE_MAILBOX_BUSY)
            self.server.record(
                self.client, self.sender, recipient, False, reply.code, "policy"
            )
            return reply
        self.recipients.append(recipient)
        self.state = SessionState.RCPT
        return replies.ok(f"2.1.5 <{recipient}> recipient ok")

    def data(self, message: Message) -> Reply:
        """DATA phase collapsed into one call carrying the message."""
        if self.state is not SessionState.RCPT or not self.recipients:
            self.server.stats.protocol_errors += 1
            return replies.bad_sequence("RCPT TO")
        assert self.sender is not None
        accepted_any = False
        refusals: List[Optional[Reply]] = []
        for recipient in self.recipients:
            envelope = Envelope(
                sender=self.sender,
                recipient=recipient,
                message_id=message.message_id,
                campaign_id=message.campaign_id,
            )
            decision = self.server.policy.on_message(
                self.client, envelope, message
            )
            code = replies.CODE_OK if decision.accept else (
                decision.reply.code if decision.reply else replies.CODE_MAILBOX_BUSY
            )
            if not decision.accept:
                refusals.append(decision.reply)
            self.server.record(
                self.client,
                self.sender,
                recipient,
                decision.accept,
                code,
                "data",
                message_id=message.message_id,
                campaign_id=message.campaign_id,
            )
            accepted_any = accepted_any or decision.accept
        if accepted_any:
            self.server.stats.messages_accepted += 1
        # Per-recipient DATA responses are not expressible in SMTP; report
        # success when any recipient accepted (matching real MTA behaviour
        # for mixed outcomes at RCPT time — here policy only runs at RCPT
        # for greylisting, so mixed DATA outcomes only occur in tests).
        self.state = SessionState.GREETED
        self.sender = None
        self.recipients = []
        if accepted_any:
            return replies.ok("2.0.0 message accepted for delivery")
        # Every recipient was refused.  If every refusal was a 4xx reply,
        # the policy only deferred: answer with the first, so the client
        # retries instead of bouncing.  A refusal that names no reply
        # leaves nothing to answer with, so it keeps the 554.
        deferrals = [
            reply
            for reply in refusals
            if reply is not None and reply.is_transient_failure
        ]
        if len(deferrals) == len(refusals):
            return deferrals[0]
        return Reply(replies.CODE_TRANSACTION_FAILED, "transaction failed")

    def abort(self) -> None:
        """Abrupt teardown (connection reset): drop any open transaction.

        Unlike :meth:`quit` no reply crosses the wire — the peer is gone.
        The open envelope is discarded, exactly what an MTA does when the
        socket dies before DATA completed.
        """
        if self.state is SessionState.CLOSED:
            return
        self.state = SessionState.CLOSED
        self.sender = None
        self.recipients = []
        self.server.stats.sessions_aborted += 1

    def rset(self) -> Reply:
        if self.state is SessionState.CLOSED:
            return replies.bad_sequence("connection closed")
        if self.state is not SessionState.CONNECTED:
            self.state = SessionState.GREETED
        self.sender = None
        self.recipients = []
        return replies.ok("2.0.0 reset")

    def quit(self) -> Reply:
        self.state = SessionState.CLOSED
        return replies.closing(self.server.hostname)

    def __repr__(self) -> str:
        return f"SMTPSession(client={self.client}, state={self.state.value})"
