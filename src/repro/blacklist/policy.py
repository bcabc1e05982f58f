"""DNSBL-backed SMTP pre-acceptance policy.

The classic sender-based filter: look the connecting client up in a
blacklist and reject with a permanent 5xx when listed.  Composable with
greylisting via :class:`~repro.smtp.server.CompositePolicy` — DNSBL first,
greylisting second, which is the standard Postfix ``smtpd_recipient_
restrictions`` ordering and the configuration the synergy experiment uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..net.address import IPv4Address
from ..smtp.replies import Reply
from ..smtp.server import ConnectionPolicy, PolicyDecision
from .dnsbl import ReactiveBlacklist

#: The conventional reject code for a DNSBL hit.
DNSBL_REJECT_CODE = 554


@dataclass
class DNSBLEvent:
    """One policy decision driven by the blacklist."""

    timestamp: float
    client: IPv4Address
    listed: bool


class DNSBLPolicy(ConnectionPolicy):
    """Rejects RCPTs from blacklisted client addresses.

    The check runs at RCPT time (not on connect) so its decisions land in
    the same per-envelope server log greylisting uses, and so the policy
    also reports sightings: every spam attempt our server sees is itself a
    report to the blacklist — the local contribution alongside the global
    telemetry feed.
    """

    def __init__(
        self,
        blacklist: ReactiveBlacklist,
        report_attempts: bool = True,
        zone_name: str = "zen.dnsbl.example",
    ) -> None:
        self.blacklist = blacklist
        self.report_attempts = report_attempts
        self.zone_name = zone_name
        self.events: List[DNSBLEvent] = []
        self.rejections = 0

    def on_rcpt_to(
        self, client: IPv4Address, sender: str, recipient: str
    ) -> PolicyDecision:
        listed = self.blacklist.is_listed(client)
        self.events.append(
            DNSBLEvent(
                timestamp=self.blacklist.clock.now,
                client=client,
                listed=listed,
            )
        )
        if listed:
            self.rejections += 1
            return PolicyDecision.reject(
                Reply(
                    DNSBL_REJECT_CODE,
                    f"5.7.1 Service unavailable; client [{client}] blocked "
                    f"using {self.zone_name}",
                )
            )
        if self.report_attempts:
            # Not (yet) listed: this sighting still feeds the blacklist.
            self.blacklist.report(client)
        return PolicyDecision.ok()
