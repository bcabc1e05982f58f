"""The spam-bot engine.

A :class:`SpamBot` is the malware's message-delivery routine: it receives a
spam job (message + recipient list) from its C&C, resolves targets with its
family's MX behaviour, speaks its family's SMTP dialect, and retries (or
not) per its family's retry model.  Every attempt is journalled, because the
experiments' raw data is precisely the timeline of bot attempts against the
instrumented server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..dns.mxutil import MailExchanger, resolve_exchangers
from ..dns.resolver import DNSError, StubResolver
from ..net.address import IPv4Address
from ..net.host import SMTP_PORT, ConnectionRefused, HostUnreachable
from ..net.network import VirtualInternet
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream
from ..smtp.message import Message
from .behavior import MXBehavior, select_targets
from .retry import BotRetryModel, FireAndForget


class BotAttemptOutcome(enum.Enum):
    DELIVERED = "delivered"
    DEFERRED = "deferred"            # 4yz (greylisting) — may retry
    REJECTED = "rejected"            # 5yz — permanent
    CONNECTION_FAILED = "connection-failed"  # refused/unreachable (nolisting)
    DNS_FAILED = "dns-failed"


def _negative_outcome(reply) -> BotAttemptOutcome:
    return (
        BotAttemptOutcome.DEFERRED
        if reply.is_transient_failure
        else BotAttemptOutcome.REJECTED
    )


def drive_dialogue(session, message: Message, recipient: str, helo_name: str):
    """Drive the bot dialect of the SMTP dialogue against one session.

    Returns ``(outcome, reply_code)`` of the decisive reply.  This is the
    exact dialogue a :class:`SpamBot` speaks, factored out so the
    internet-scale engine can drive one *real* session per class.  Each
    command goes out only after a positive reply to the one before: on
    the first negative reply the bot drops the connection, without QUIT.
    """
    reply = session.banner
    if reply.is_positive:
        reply = session.helo(helo_name)
    if reply.is_positive:
        reply = session.mail_from(message.sender)
    if reply.is_positive:
        reply = session.rcpt_to(recipient)
    if reply.is_positive:
        reply = session.data(message)
        if reply.is_positive:
            return BotAttemptOutcome.DELIVERED, reply.code
    return _negative_outcome(reply), reply.code


@dataclass
class BotAttempt:
    """One delivery attempt by the bot for one (message, recipient)."""

    timestamp: float
    attempt_number: int
    outcome: BotAttemptOutcome
    target: Optional[str] = None     # MX hostname contacted
    reply_code: Optional[int] = None


@dataclass
class BotTask:
    """One (message, recipient) delivery task inside the bot."""

    message: Message
    recipient: str
    created_at: float
    attempts: List[BotAttempt] = field(default_factory=list)
    delivered: bool = False
    abandoned: bool = False
    #: Task-private randomness (retry-delay draws).  When ``None`` the bot
    #: falls back to its shared stream; experiments that batch over
    #: messages pass one stream per message so tasks stay independent.
    rng: Optional[RandomStream] = None

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def delivery_delay(self) -> Optional[float]:
        if not self.delivered:
            return None
        return self.attempts[-1].timestamp - self.created_at

    def attempt_ages(self) -> List[float]:
        """Seconds from task creation to each attempt (Figure 4 x-axis)."""
        return [a.timestamp - self.created_at for a in self.attempts]


class SpamBot:
    """An infected machine's spam-sending routine.

    Parameters
    ----------
    internet, resolver, scheduler:
        The simulation substrates.
    source_address:
        The infected machine's IP.
    mx_behavior:
        Which MX hosts the bot contacts (family trait).
    rng:
        Bot-private randomness stream (split it from the experiment seed).
    retry_model:
        When/whether the bot retries deferred messages (family trait).
    helo_name:
        The (usually fake) HELO the bot announces.
    walks_mx_on_failure:
        Whether a connection failure makes the bot try the next target in
        its selected list within the *same* attempt (compliant behaviour)
        or give the attempt up (single-shot bots).
    """

    def __init__(
        self,
        internet: VirtualInternet,
        resolver: StubResolver,
        scheduler: EventScheduler,
        source_address: IPv4Address,
        mx_behavior: MXBehavior,
        rng: RandomStream,
        retry_model: Optional[BotRetryModel] = None,
        helo_name: str = "dsl-pool-17.example.org",
        walks_mx_on_failure: bool = True,
    ) -> None:
        self.internet = internet
        self.resolver = resolver
        self.scheduler = scheduler
        self.source_address = source_address
        self.mx_behavior = mx_behavior
        self.retry_model = retry_model if retry_model is not None else FireAndForget()
        self.rng = rng
        self.helo_name = helo_name
        self.walks_mx_on_failure = walks_mx_on_failure
        self.tasks: List[BotTask] = []

    # ------------------------------------------------------------------
    # Job intake (each experiment deals out its campaign's jobs)
    # ------------------------------------------------------------------
    def assign(
        self, message: Message, rng: Optional[RandomStream] = None
    ) -> List[BotTask]:
        """Accept a spam job; one task per recipient, attempted immediately.

        ``rng``, when given, becomes the tasks' private retry-randomness
        stream — the per-message decoupling the internet-scale engine relies on.
        """
        created: List[BotTask] = []
        for recipient in message.recipients:
            task = BotTask(
                message=message,
                recipient=recipient,
                created_at=self.scheduler.now,
                rng=rng,
            )
            self.tasks.append(task)
            created.append(task)
            self.scheduler.schedule_in(0.0, lambda t=task: self._attempt(t))
        return created

    # ------------------------------------------------------------------
    # Attempt machinery
    # ------------------------------------------------------------------
    def _targets_for(self, domain: str) -> List[MailExchanger]:
        try:
            exchangers = resolve_exchangers(self.resolver, domain)
        except DNSError:
            return []
        return select_targets(self.mx_behavior, exchangers, self.rng)

    def _attempt(self, task: BotTask) -> None:
        if task.delivered or task.abandoned:
            return
        number = task.attempt_count + 1
        domain = task.recipient.rsplit("@", 1)[1]
        targets = self._targets_for(domain)
        if not targets:
            task.attempts.append(
                BotAttempt(
                    timestamp=self.scheduler.now,
                    attempt_number=number,
                    outcome=BotAttemptOutcome.DNS_FAILED,
                )
            )
            self._after_failure(task)
            return

        outcome = BotAttemptOutcome.CONNECTION_FAILED
        reply_code: Optional[int] = None
        contacted: Optional[str] = None
        for target in targets:
            assert target.address is not None
            contacted = target.hostname
            try:
                connection = self.internet.connect(
                    self.source_address, target.address, SMTP_PORT
                )
            except (ConnectionRefused, HostUnreachable):
                task.attempts.append(
                    BotAttempt(
                        timestamp=self.scheduler.now,
                        attempt_number=number,
                        outcome=BotAttemptOutcome.CONNECTION_FAILED,
                        target=contacted,
                    )
                )
                number += 1
                if self.walks_mx_on_failure:
                    continue
                self._after_failure(task)
                return
            outcome, reply_code = drive_dialogue(
                connection.session,
                task.message,
                task.recipient,
                self.helo_name,
            )
            break
        else:
            # Every selected target refused the connection.
            self._after_failure(task)
            return

        task.attempts.append(
            BotAttempt(
                timestamp=self.scheduler.now,
                attempt_number=number,
                outcome=outcome,
                target=contacted,
                reply_code=reply_code,
            )
        )
        if outcome is BotAttemptOutcome.DELIVERED:
            task.delivered = True
            return
        if outcome is BotAttemptOutcome.REJECTED:
            task.abandoned = True
            return
        self._after_failure(task)

    def _after_failure(self, task: BotTask) -> None:
        rng = task.rng if task.rng is not None else self.rng
        delay = self.retry_model.next_delay(task.attempt_count, rng)
        if delay is None:
            task.abandoned = True
            return
        self.scheduler.schedule_in(delay, lambda t=task: self._attempt(t))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def delivered_tasks(self) -> List[BotTask]:
        return [t for t in self.tasks if t.delivered]

    @property
    def abandoned_tasks(self) -> List[BotTask]:
        return [t for t in self.tasks if t.abandoned]

    def all_attempts(self) -> List[BotAttempt]:
        return [attempt for task in self.tasks for attempt in task.attempts]

    def __repr__(self) -> str:
        return (
            f"SpamBot({self.source_address}, {self.mx_behavior.value}, "
            f"tasks={len(self.tasks)})"
        )
