"""Outbound mail queue and delivery agent.

:class:`QueueManager` is the sending half of a benign MTA: messages enter
the queue, a delivery agent attempts them immediately, and transient
failures are re-scheduled according to the MTA's
:class:`~repro.mta.schedule.RetrySchedule` until delivery, permanent
failure, or queue-lifetime expiry (bounce).

Every attempt is journalled as a :class:`QueueAttempt`, which is what the
Figure 5 deployment analysis and the Table III webmail experiment read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.events import EventScheduler
from ..smtp.client import AttemptOutcome, AttemptResult, SMTPClient
from ..smtp.message import Message
from .schedule import RetrySchedule


class QueueEntryState(enum.Enum):
    QUEUED = "queued"
    DELIVERED = "delivered"
    BOUNCED = "bounced"          # permanent failure from remote
    EXPIRED = "expired"          # queue lifetime exceeded, gave up
    ABANDONED = "abandoned"      # schedule ran out of retries


@dataclass
class QueueAttempt:
    """One delivery attempt of one queue entry."""

    timestamp: float
    attempt_number: int
    outcome: AttemptOutcome
    reply_code: Optional[int]


@dataclass
class QueueEntry:
    """One (message, recipient) pair waiting in the queue."""

    message: Message
    recipient: str
    enqueued_at: float
    state: QueueEntryState = QueueEntryState.QUEUED
    attempts: List[QueueAttempt] = field(default_factory=list)
    finished_at: Optional[float] = None

    @property
    def attempt_count(self) -> int:
        return len(self.attempts)

    @property
    def delivery_delay(self) -> Optional[float]:
        """Seconds from enqueue to successful delivery (None if undelivered)."""
        if self.state is not QueueEntryState.DELIVERED:
            return None
        assert self.finished_at is not None
        return self.finished_at - self.enqueued_at


class QueueManager:
    """Retry-driving outbound queue bound to an event scheduler.

    Parameters
    ----------
    scheduler:
        The simulation event loop.
    client:
        The SMTP client used for attempts.  Swap in a multi-IP pool client
        (webmail) or bot client to change sending behaviour.
    schedule:
        Retry timing policy.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        client: SMTPClient,
        schedule: RetrySchedule,
    ) -> None:
        self.scheduler = scheduler
        self.client = client
        self.schedule = schedule
        self.entries: List[QueueEntry] = []

    # ------------------------------------------------------------------
    # Enqueue
    # ------------------------------------------------------------------
    def submit(self, message: Message) -> List[QueueEntry]:
        """Queue a message for all its recipients; first attempt is now."""
        created: List[QueueEntry] = []
        for recipient in message.recipients:
            entry = QueueEntry(
                message=message,
                recipient=recipient,
                enqueued_at=self.scheduler.now,
            )
            self.entries.append(entry)
            created.append(entry)
            self.scheduler.schedule_in(0.0, lambda e=entry: self._attempt(e))
        return created

    # ------------------------------------------------------------------
    # Attempt machinery
    # ------------------------------------------------------------------
    def _attempt(self, entry: QueueEntry) -> None:
        if entry.state is not QueueEntryState.QUEUED:
            return
        result: AttemptResult = self.client.send(entry.message, entry.recipient)
        attempt = QueueAttempt(
            timestamp=self.scheduler.now,
            attempt_number=entry.attempt_count + 1,
            outcome=result.outcome,
            reply_code=result.reply.code if result.reply else None,
        )
        entry.attempts.append(attempt)

        if result.succeeded:
            self._finish(entry, QueueEntryState.DELIVERED)
            return
        if result.outcome is AttemptOutcome.BOUNCED:
            self._finish(entry, QueueEntryState.BOUNCED)
            return

        queue_age = self.scheduler.now - entry.enqueued_at
        delay = self.schedule.next_delay(entry.attempt_count, queue_age)
        if delay is None:
            terminal = (
                QueueEntryState.EXPIRED
                if (
                    self.schedule.max_queue_time is not None
                    and queue_age >= self.schedule.max_queue_time
                )
                else QueueEntryState.ABANDONED
            )
            self._finish(entry, terminal)
            return
        self.scheduler.schedule_in(delay, lambda e=entry: self._attempt(e))

    def _finish(self, entry: QueueEntry, state: QueueEntryState) -> None:
        entry.state = state
        entry.finished_at = self.scheduler.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def entries_in_state(self, state: QueueEntryState) -> List[QueueEntry]:
        return [e for e in self.entries if e.state is state]

    @property
    def delivered(self) -> List[QueueEntry]:
        return self.entries_in_state(QueueEntryState.DELIVERED)

    @property
    def pending(self) -> List[QueueEntry]:
        return self.entries_in_state(QueueEntryState.QUEUED)

    def __repr__(self) -> str:
        return (
            f"QueueManager(entries={len(self.entries)}, "
            f"delivered={len(self.delivered)}, pending={len(self.pending)})"
        )
