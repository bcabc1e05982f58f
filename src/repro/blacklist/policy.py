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
    the same per-envelope server log greylisting uses.  The policy only
    reads the blacklist: sightings reach it through the global telemetry
    feed, so a single burst at our server cannot list a bot by itself.
    """

    def __init__(
        self,
        blacklist: ReactiveBlacklist,
        zone_name: str = "zen.dnsbl.example",
    ) -> None:
        self.blacklist = blacklist
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
        return PolicyDecision.ok()
