"""Webmail provider sending models.

Each provider is modelled by the three traits Table III measures:

* its **retry schedule** — the queue ages at which it re-attempts a deferred
  message (explicit early attempts, optionally continuing at a fixed cadence,
  optionally giving up after a maximum number of attempts);
* its **outbound IP pool** — how many distinct addresses its delivery farm
  rotates through, and in what order; and
* implicitly, whether that combination gets a message past a greylisting
  threshold.

The :class:`WebmailDelivery` driver plays a provider's schedule against a
destination server on the simulator, which is how the Table III experiment
regenerates the ATTEMPTS / DELIVER / DELAYS columns instead of transcribing
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from ..net.address import AddressPool, IPv4Address
from ..sim.events import EventScheduler
from ..smtp.client import AttemptOutcome, SMTPClient
from ..smtp.message import Message


@dataclass(frozen=True)
class ProviderSpec:
    """Static description of one webmail provider's sending behaviour.

    Parameters
    ----------
    name:
        Provider domain (``gmail.com``).
    retry_ages:
        Queue ages, in seconds, of scheduled retries (attempt 1 is always at
        age 0 and is not listed).
    ip_pool_size:
        Number of distinct outbound addresses the farm uses for one message.
    ip_sequence:
        Optional explicit pool-index sequence for successive attempts; when
        omitted the pool is used round-robin.  (mail.ru's farm revisits its
        first address late in the sequence, which is what lets it pass a six
        hour threshold — the default rotation would not.)
    continuation_interval:
        When set, after ``retry_ages`` is exhausted the provider keeps
        retrying at this fixed cadence (hotmail's 4-minute hammering,
        yandex's 15:25 cycle).  When ``None`` the provider gives up once the
        explicit schedule ends (aol.com, qq.com).
    max_attempts:
        Hard cap on total attempts, give-up included.
    """

    name: str
    retry_ages: Sequence[float]
    ip_pool_size: int = 1
    ip_sequence: Optional[Sequence[int]] = None
    continuation_interval: Optional[float] = None
    max_attempts: int = 200

    def __post_init__(self) -> None:
        ages = list(self.retry_ages)
        if any(a <= 0 for a in ages) or sorted(ages) != ages:
            raise ValueError(f"{self.name}: retry ages must be positive ascending")
        if self.ip_pool_size < 1:
            raise ValueError(f"{self.name}: need at least one outbound IP")
        if self.ip_sequence is not None:
            if any(not 0 <= i < self.ip_pool_size for i in self.ip_sequence):
                raise ValueError(f"{self.name}: ip_sequence index out of range")
        if self.continuation_interval is not None and self.continuation_interval <= 0:
            raise ValueError(f"{self.name}: continuation interval must be positive")
        if self.max_attempts < 1:
            raise ValueError(f"{self.name}: max_attempts must be >= 1")

    @property
    def uses_single_ip(self) -> bool:
        """The Table III 'SAME IP' column."""
        return self.ip_pool_size == 1

    @property
    def gives_up(self) -> bool:
        """Whether the schedule ends before the RFC's 4-5 day guidance."""
        return self.continuation_interval is None

    def attempt_age(self, attempt_number: int) -> Optional[float]:
        """Queue age of the ``attempt_number``-th attempt (1-based).

        Returns ``None`` when the provider never makes that attempt.
        """
        if attempt_number < 1 or attempt_number > self.max_attempts:
            return None
        if attempt_number == 1:
            return 0.0
        index = attempt_number - 2
        ages = list(self.retry_ages)
        if index < len(ages):
            return ages[index]
        if self.continuation_interval is None:
            return None
        overflow = index - len(ages) + 1
        base = ages[-1] if ages else 0.0
        return base + overflow * self.continuation_interval

    def pool_index(self, attempt_number: int) -> int:
        """Which pool member sends the ``attempt_number``-th attempt."""
        index = attempt_number - 1
        if self.ip_sequence is not None:
            if index < len(self.ip_sequence):
                return self.ip_sequence[index]
            return self.ip_sequence[-1]
        return index % self.ip_pool_size


@dataclass
class DeliveryOutcome:
    """Result of playing one provider schedule against one server."""

    provider: ProviderSpec
    delivered: bool
    attempts: int
    attempt_ages: List[float] = field(default_factory=list)
    distinct_ips_used: int = 0
    delivery_age: Optional[float] = None

    @property
    def retry_ages(self) -> List[float]:
        """Ages of re-transmissions only (Table III's DELAYS column)."""
        return self.attempt_ages[1:]


class WebmailDelivery:
    """Drives one provider's outbound farm on the event scheduler."""

    def __init__(
        self,
        spec: ProviderSpec,
        scheduler: EventScheduler,
        client: SMTPClient,
        address_pool: AddressPool,
    ) -> None:
        self.spec = spec
        self.scheduler = scheduler
        self.client = client
        self.addresses: List[IPv4Address] = address_pool.allocate_many(
            spec.ip_pool_size
        )

    def deliver(self, message: Message, recipient: str) -> DeliveryOutcome:
        """Submit a message and drive the schedule synchronously.

        Schedules every attempt on the event loop; the caller is expected to
        ``scheduler.run()`` afterwards.  Returns the live outcome object that
        the attempts mutate.
        """
        outcome = DeliveryOutcome(
            provider=self.spec, delivered=False, attempts=0
        )
        submitted_at = self.scheduler.now
        used_ips: Set[IPv4Address] = set()

        def attempt(number: int) -> None:
            if outcome.delivered:
                return
            source = self.addresses[self.spec.pool_index(number)]
            used_ips.add(source)
            outcome.distinct_ips_used = len(used_ips)
            result = self.client.send(message, recipient, source_override=source)
            now = self.scheduler.now
            outcome.attempts = number
            outcome.attempt_ages.append(now - submitted_at)
            if result.outcome is AttemptOutcome.DELIVERED:
                outcome.delivered = True
                outcome.delivery_age = now - submitted_at
                return
            if result.outcome is AttemptOutcome.BOUNCED:
                return  # permanent rejection: stop immediately
            next_age = self.spec.attempt_age(number + 1)
            if next_age is None:
                return
            delay = (submitted_at + next_age) - now
            self.scheduler.schedule_in(
                max(delay, 0.0), lambda: attempt(number + 1)
            )

        self.scheduler.schedule_in(0.0, lambda: attempt(1))
        return outcome
