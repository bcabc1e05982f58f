"""Greylisting resource-cost accounting.

The paper's §VI notes that greylisting and nolisting "have a cost for the
system (for example in terms of disk space and computation resources) and
for the Internet community at large (because of the increased traffic and
bandwidth)" — and that knowing when the techniques stop paying that cost
back matters.  This module turns a :class:`GreylistPolicy` run into those
cost numbers:

* **server side** — triplet-database entries and serialized size, policy
  decisions computed;
* **network side** — extra SMTP connections induced (every deferral forces
  the sender to come back), and the wasted bytes of the rejected dialogues.

The estimates use the canonical sizes of a minimal SMTP rejection exchange
rather than pretending byte-accuracy: the point is relative cost across
configurations, which is what the cost ablation compares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .persistence import snapshot_size_bytes
from .policy import GreylistAction, GreylistPolicy

#: Bytes on the wire for one deferred delivery attempt: TCP handshake
#: overhead aside, banner + EHLO + MAIL + RCPT + 450 reply + teardown.
BYTES_PER_DEFERRED_ATTEMPT = 350

#: Extra bytes a retry that finally passes repeats (the whole preamble).
BYTES_PER_RETRY_PREAMBLE = 250


@dataclass
class GreylistCostReport:
    """Resource costs of one greylisting deployment run."""

    decisions: int                 # policy invocations (CPU-cost proxy)
    deferrals: int                 # 450 replies sent
    passes: int                    # accepted retries
    whitelist_hits: int
    db_entries: int                # live triplet-database entries
    db_bytes: int                  # serialized database size
    extra_connections: int         # connections forced by deferrals
    extra_bytes: int               # wasted wire bytes

    @property
    def extra_connections_per_delivery(self) -> float:
        if self.passes == 0:
            return float(self.deferrals)
        return self.extra_connections / self.passes


def measure_cost(policy: GreylistPolicy) -> GreylistCostReport:
    """Compute the cost report for everything ``policy`` has seen."""
    deferrals = 0
    passes = 0
    whitelist_hits = 0
    for event in policy.events:
        if event.deferred:
            deferrals += 1
        elif event.action in (
            GreylistAction.PASSED,
            GreylistAction.PASSED_KNOWN,
        ):
            passes += 1
        elif event.action is GreylistAction.WHITELISTED:
            whitelist_hits += 1
    # Every deferral means the sender must open one more connection; the
    # retry also repeats the session preamble.
    extra_connections = deferrals
    extra_bytes = (
        deferrals * BYTES_PER_DEFERRED_ATTEMPT
        + passes * BYTES_PER_RETRY_PREAMBLE
    )
    return GreylistCostReport(
        decisions=len(policy.events),
        deferrals=deferrals,
        passes=passes,
        whitelist_hits=whitelist_hits,
        db_entries=policy.store.size,
        db_bytes=snapshot_size_bytes(policy.store),
        extra_connections=extra_connections,
        extra_bytes=extra_bytes,
    )
