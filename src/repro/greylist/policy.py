"""Postgrey-compatible greylisting policy.

Decision procedure for an incoming RCPT, per the Postgrey semantics the
paper's testbed used:

1. whitelisted sender domain → accept immediately;
2. unknown triplet → record it, defer with 450 ("Greylisted");
3. known triplet younger than the *delay threshold* → defer again (the
   attempt still refreshes last-seen, and counts);
4. known triplet at least ``delay`` old → accept and mark the triplet
   passed (auto-whitelisted for ``whitelist_lifetime``).

The policy plugs into :class:`repro.smtp.server.SMTPServer` via the
``on_rcpt_to`` hook and records one :class:`GreylistEvent` per decision —
the anonymized attempt log of the university dataset is exactly a dump of
those events.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional

from ..net.address import IPv4Address
from ..sim.clock import Clock
from ..smtp import replies
from ..smtp.server import ConnectionPolicy, PolicyDecision
from .keying import KeyStrategy, derive_key
from .store import TripletStore
from .triplet import Triplet
from .whitelist import Whitelist

#: Default Postgrey delay (seconds) — also the paper's university threshold.
DEFAULT_DELAY = 300.0


class GreylistAction(enum.Enum):
    """What the policy did with an attempt."""

    WHITELISTED = "whitelisted"          # static whitelist hit
    GREYLISTED_NEW = "greylisted-new"    # first sighting, deferred
    GREYLISTED_EARLY = "greylisted-early"  # retry before threshold, deferred
    PASSED = "passed"                    # retry after threshold, accepted
    PASSED_KNOWN = "passed-known"        # triplet already confirmed


@dataclass
class GreylistEvent:
    """One policy decision, as logged."""

    timestamp: float
    triplet: Triplet
    action: GreylistAction
    attempt_number: int
    triplet_age: float

    @property
    def deferred(self) -> bool:
        return self.action in (
            GreylistAction.GREYLISTED_NEW,
            GreylistAction.GREYLISTED_EARLY,
        )


class GreylistPolicy(ConnectionPolicy):
    """The greylisting pre-acceptance policy.

    Parameters
    ----------
    clock:
        Simulation clock.
    delay:
        The greylisting threshold in seconds (paper sweeps 5 / 300 / 21600).
    store:
        Triplet database; a fresh in-memory one is created if omitted.
        A caller that wants another backend builds the store itself, as
        the serving daemon does (:mod:`repro.greylist.backends`).
    whitelist:
        Static whitelist (empty by default — the paper removed Postgrey's
        stock whitelist for the Table III experiment).
    key_strategy:
        Which greylisting variant to run (see
        :mod:`repro.greylist.keying`).  Defaults to the classic full
        triplet.
    """

    def __init__(
        self,
        clock: Clock,
        delay: float = DEFAULT_DELAY,
        store: Optional[TripletStore] = None,
        whitelist: Optional[Whitelist] = None,
        key_strategy: KeyStrategy = KeyStrategy.FULL_TRIPLET,
    ) -> None:
        if not 0 <= delay < math.inf:
            raise ValueError(f"delay must be finite and non-negative, got {delay!r}")
        self.clock = clock
        self.delay = float(delay)
        if store is not None:
            self.store = store
        else:
            self.store = TripletStore(clock)
        self.whitelist = whitelist if whitelist is not None else Whitelist()
        self.key_strategy = key_strategy
        self.events: List[GreylistEvent] = []

    def fingerprint(self) -> tuple:
        """Decision-function identity, part of the serving decision-cache key.

        Includes every knob that changes a reply: the delay threshold and
        the keying variant.  Store *contents* and the store's backend are
        absent: the contents are per-triplet state, and every backend
        decides identically.
        """
        return ("greylist", self.delay, self.key_strategy.value)

    # ------------------------------------------------------------------
    # Key normalization
    # ------------------------------------------------------------------
    def _key(self, client: IPv4Address, sender: str, recipient: str) -> Triplet:
        return derive_key(self.key_strategy, client, sender, recipient)

    # ------------------------------------------------------------------
    # SMTP policy hook
    # ------------------------------------------------------------------
    def on_rcpt_to(
        self, client: IPv4Address, sender: str, recipient: str
    ) -> PolicyDecision:
        triplet = self._key(client, sender, recipient)
        now = self.clock.now

        if self.whitelist.matches(client, sender):
            self._log(triplet, GreylistAction.WHITELISTED, 0, 0.0)
            return PolicyDecision.ok()

        entry = self.store.observe(triplet)
        age = now - entry.first_seen

        if entry.passed:
            self._log(triplet, GreylistAction.PASSED_KNOWN, entry.attempts, age)
            return PolicyDecision.ok()

        if entry.attempts == 1:
            # Brand-new triplet: defer unconditionally (even with delay=0 a
            # second attempt is required — Postgrey semantics).
            self._log(triplet, GreylistAction.GREYLISTED_NEW, entry.attempts, age)
            return PolicyDecision.reject(replies.greylisted(self.delay))

        if age < self.delay:
            self._log(
                triplet, GreylistAction.GREYLISTED_EARLY, entry.attempts, age
            )
            return PolicyDecision.reject(
                replies.greylisted(self.delay - age)
            )

        self.store.mark_passed(triplet)
        self._log(triplet, GreylistAction.PASSED, entry.attempts, age)
        return PolicyDecision.ok()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _log(
        self,
        triplet: Triplet,
        action: GreylistAction,
        attempt_number: int,
        age: float,
    ) -> None:
        self.events.append(
            GreylistEvent(
                timestamp=self.clock.now,
                triplet=triplet,
                action=action,
                attempt_number=attempt_number,
                triplet_age=age,
            )
        )

    # ------------------------------------------------------------------
    # Introspection used by the analysis layer
    # ------------------------------------------------------------------
    def deferrals(self) -> List[GreylistEvent]:
        return [e for e in self.events if e.deferred]

    def passes(self) -> List[GreylistEvent]:
        return [
            e
            for e in self.events
            if e.action in (GreylistAction.PASSED, GreylistAction.PASSED_KNOWN)
        ]

    def __repr__(self) -> str:
        return (
            f"GreylistPolicy(delay={self.delay}, events={len(self.events)}, "
            f"store={self.store.size})"
        )
