"""Greylisting-variant comparison (Sochor's question, answered in-sim).

Deployments choose what to key greylisting on, trading robustness for
tolerance.  For each :class:`~repro.greylist.keying.KeyStrategy` this
experiment measures the three quantities the choice moves:

* **rotation resistance** — spam delivered by a bot that retries (so it
  would beat plain greylisting) *and* rotates envelope senders between
  retries, trying to ride a coarse key's whitelist;
* **farm tolerance** — delivery delay of a benign provider whose farm
  rotates source addresses inside one /24 (the Table III problem);
* **database load** — triplet entries created under rotating-sender spam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..greylist.keying import KeyStrategy
from ..greylist.policy import GreylistPolicy
from ..net.address import AddressPool, IPv4Network
from ..sim.clock import Clock
from ..sim.rng import RandomStream

#: All variants, in increasing coarseness.
ALL_STRATEGIES: Sequence[KeyStrategy] = (
    KeyStrategy.FULL_TRIPLET,
    KeyStrategy.CLIENT_NET_TRIPLET,
    KeyStrategy.SENDER_DOMAIN,
    KeyStrategy.CLIENT_ONLY,
)


@dataclass
class VariantResult:
    """Measured behaviour of one key strategy."""

    strategy: KeyStrategy
    rotating_spam_delivered: int
    rotating_spam_attempts: int
    farm_delivery_delay: float        # seconds; inf if never delivered
    db_entries_under_rotation: int

    @property
    def rotation_resistant(self) -> bool:
        return self.rotating_spam_delivered == 0


def _measure_rotating_spam(
    strategy: KeyStrategy, threshold: float, seed: int
) -> tuple:
    """A retrying bot that rotates senders between attempts.

    Modelled at the policy level: attempts every ``threshold`` seconds
    (so a stable key would pass on attempt 2), each with a fresh sender.
    Returns (delivered, attempts, db_entries).  Here and in
    :func:`_measure_farm_delay` the addresses are built canonical
    (lower-case domains, no whitespace), as the policy requires.
    """
    clock = Clock()
    policy = GreylistPolicy(clock=clock, delay=threshold, key_strategy=strategy)
    client = AddressPool(IPv4Network.parse("198.51.100.0/24")).allocate()
    delivered = 0
    attempts = 0
    num_messages = 20
    retries_per_message = 4
    for message_index in range(num_messages):
        accepted = False
        for retry in range(retries_per_message):
            sender = (
                f"u{message_index}-{retry}@rot{message_index % 7}.example"
            )
            decision = policy.on_rcpt_to(
                client, sender, "victim@victim.example"
            )
            attempts += 1
            if decision.accept:
                accepted = True
                break
            clock.advance_by(threshold + 1.0)
        if accepted:
            delivered += 1
    return delivered, attempts, policy.store.size


def _measure_farm_delay(
    strategy: KeyStrategy, threshold: float, seed: int
) -> float:
    """A benign sender whose farm rotates addresses within one /24."""
    clock = Clock()
    policy = GreylistPolicy(clock=clock, delay=threshold, key_strategy=strategy)
    pool = AddressPool(IPv4Network.parse("203.0.113.0/24"))
    addresses = pool.allocate_many(4)
    rng = RandomStream(seed, f"farm:{strategy.value}")
    sender = "newsletter@bigprovider.example"
    recipient = "user@victim.example"
    start = clock.now
    # Retries every threshold seconds, rotating the pool round-robin.
    for attempt in range(40):
        client = addresses[attempt % len(addresses)]
        decision = policy.on_rcpt_to(client, sender, recipient)
        if decision.accept:
            return clock.now - start
        clock.advance_by(threshold + rng.uniform(1.0, 30.0))
    return float("inf")


def compare_variants(
    strategies: Sequence[KeyStrategy] = ALL_STRATEGIES,
    threshold: float = 300.0,
    seed: int = 47,
) -> List[VariantResult]:
    """Run the three measurements for every strategy."""
    results: List[VariantResult] = []
    for strategy in strategies:
        delivered, attempts, db_entries = _measure_rotating_spam(
            strategy, threshold, seed
        )
        farm_delay = _measure_farm_delay(strategy, threshold, seed)
        results.append(
            VariantResult(
                strategy=strategy,
                rotating_spam_delivered=delivered,
                rotating_spam_attempts=attempts,
                farm_delivery_delay=farm_delay,
                db_entries_under_rotation=db_entries,
            )
        )
    return results
