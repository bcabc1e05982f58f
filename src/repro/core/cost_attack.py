"""Triplet-database growth under spam load (the §VI disk-space cost).

Every spam attempt from an unknown triplet inserts a database entry even
though the message is rejected — so the *spammers* control the size of the
greylisting database.  A sender that rotates envelope senders (trivial for
a bot) mints a fresh triplet per attempt and never benefits from its own
history; the server pays for each one until the retry window expires it.

This experiment drives a greylisted server with rotating-sender spam plus
a benign baseline and tracks database entries/bytes over time, with and
without periodic cleanup sweeps — quantifying the resource cost the paper
says must be weighed against the techniques' benefit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..greylist.persistence import snapshot_size_bytes
from ..greylist.policy import GreylistPolicy
from ..greylist.store import TripletStore
from ..net.address import AddressPool, IPv4Network
from ..sim.clock import Clock
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream

DAY = 86400.0


@dataclass
class DBGrowthPoint:
    """Database size at one sample instant."""

    time: float
    entries: int
    size_bytes: int


@dataclass
class CostAttackResult:
    """Database growth trajectory of one run."""

    retry_window_days: float
    sweeping: bool
    samples: List[DBGrowthPoint] = field(default_factory=list)
    spam_attempts: int = 0
    benign_attempts: int = 0

    @property
    def peak_entries(self) -> int:
        return max(p.entries for p in self.samples) if self.samples else 0

    @property
    def final_entries(self) -> int:
        return self.samples[-1].entries if self.samples else 0

    @property
    def peak_bytes(self) -> int:
        return max(p.size_bytes for p in self.samples) if self.samples else 0


def run_cost_attack(
    spam_per_day: int = 500,
    benign_per_day: int = 50,
    duration_days: float = 14.0,
    retry_window_days: float = 2.0,
    sweep_interval_days: float = 1.0,
    sweeping: bool = True,
    seed: int = 41,
) -> CostAttackResult:
    """Rotating-sender spam vs a greylisted server; track DB growth."""
    if spam_per_day < 0 or benign_per_day < 0:
        raise ValueError("volumes must be non-negative")
    scheduler = EventScheduler(Clock())
    store = TripletStore(scheduler.clock, retry_window=retry_window_days * DAY)
    policy = GreylistPolicy(clock=scheduler.clock, delay=300.0, store=store)
    spam_pool = AddressPool(IPv4Network.parse("198.51.0.0/16"))
    rng = RandomStream(seed, "cost-attack")
    result = CostAttackResult(
        retry_window_days=retry_window_days, sweeping=sweeping
    )

    horizon = duration_days * DAY
    spam_rng = rng.split("spam-times")
    benign_rng = rng.split("benign-times")

    # Rotating-sender spam: fresh sender (and often a fresh bot IP) per
    # message, fire-and-forget — pure database pollution.
    total_spam = int(spam_per_day * duration_days)
    bot_addresses = spam_pool.allocate_many(max(1, total_spam // 50))
    for index in range(total_spam):
        when = spam_rng.uniform(0.0, horizon)
        client = bot_addresses[index % len(bot_addresses)]
        sender = f"x{index}@throwaway{index % 997}.example"

        def spam_attempt(client=client, sender=sender):
            policy.on_rcpt_to(client, sender, "victim@victim.example")
            result.spam_attempts += 1

        scheduler.schedule_at(when, spam_attempt)

    # Benign senders: stable triplets that retry once past the threshold.
    total_benign = int(benign_per_day * duration_days)
    benign_address = spam_pool.allocate()
    for index in range(total_benign):
        when = benign_rng.uniform(0.0, horizon - 700.0)
        sender = f"person{index % 200}@partner.example"
        recipient = f"staff{index % 40}@victim.example"

        def benign_attempt(client=benign_address, sender=sender,
                           recipient=recipient):
            decision = policy.on_rcpt_to(client, sender, recipient)
            result.benign_attempts += 1
            if not decision.accept:
                scheduler.schedule_in(
                    400.0,
                    lambda: policy.on_rcpt_to(client, sender, recipient),
                )

        scheduler.schedule_at(when, benign_attempt)

    # Daily sampling (and optional sweeping).
    def sample(day: int) -> None:
        if sweeping:
            store.sweep()
        result.samples.append(
            DBGrowthPoint(
                time=scheduler.now,
                entries=store.size,
                size_bytes=snapshot_size_bytes(store),
            )
        )
        if day < int(duration_days):
            scheduler.schedule_in(
                sweep_interval_days * DAY, lambda: sample(day + 1)
            )

    scheduler.schedule_at(0.0, lambda: sample(0))
    scheduler.run(until=horizon)
    return result


def compare_sweeping(
    duration_days: float = 14.0, seed: int = 41
) -> Tuple[CostAttackResult, CostAttackResult]:
    """Same load, with and without expiry sweeps."""
    unswept = run_cost_attack(
        duration_days=duration_days, sweeping=False, seed=seed
    )
    swept = run_cost_attack(
        duration_days=duration_days, sweeping=True, seed=seed
    )
    return unswept, swept
