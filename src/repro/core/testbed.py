"""The instrumented malware-analysis testbed (paper §III).

The paper's setup: two VMs — a victim mail server (Postfix, optionally
Postgrey) and an infected machine running one malware sample — with all the
sample's DNS MX requests intercepted and answered with records pointing at
the lab server.  Our testbed builds the equivalent on the simulator:

* a victim domain whose DNS/hosts are configured with the defence under
  test (none, nolisting, greylisting, or both);
* an :class:`~repro.smtp.server.SMTPServer` with full logging;
* optional *unprotected* control addresses that bypass greylisting — the
  trick the paper used to verify the bot ran a single spam task (§V.A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set

from ..dns.nolisting import setup_nolisting, setup_single_mx
from ..dns.resolver import StubResolver
from ..dns.zone import ZoneStore
from ..greylist.policy import GreylistPolicy
from ..greylist.whitelist import Whitelist
from ..net.address import AddressPool, IPv4Address, IPv4Network
from ..net.network import VirtualInternet
from ..sim.clock import Clock
from ..sim.events import EventScheduler
from ..smtp.message import Envelope, Message
from ..smtp.server import ConnectionPolicy, PolicyDecision, SMTPServer


class Defense(enum.Enum):
    """The defence configurations the experiments compare."""

    NONE = "none"
    NOLISTING = "nolisting"
    GREYLISTING = "greylisting"
    BOTH = "both"


class ExemptingPolicy(ConnectionPolicy):
    """Wraps a policy but exempts specific recipients (e.g. postmaster).

    Exempt recipients accept mail unconditionally — the unprotected control
    mailboxes of §V.A.
    """

    def __init__(self, inner: ConnectionPolicy, exempt: Set[str]) -> None:
        self.inner = inner
        self.exempt = {address.lower() for address in exempt}

    def on_connect(self, client: IPv4Address) -> PolicyDecision:
        return self.inner.on_connect(client)

    def on_helo(self, client: IPv4Address, helo_name: str) -> PolicyDecision:
        return self.inner.on_helo(client, helo_name)

    def on_mail_from(self, client: IPv4Address, sender: str) -> PolicyDecision:
        return self.inner.on_mail_from(client, sender)

    def on_rcpt_to(
        self, client: IPv4Address, sender: str, recipient: str
    ) -> PolicyDecision:
        if recipient.lower() in self.exempt:
            return PolicyDecision.ok()
        return self.inner.on_rcpt_to(client, sender, recipient)

    def on_message(
        self, client: IPv4Address, envelope: Envelope, message: Message
    ) -> PolicyDecision:
        if envelope.recipient.lower() in self.exempt:
            return PolicyDecision.ok()
        return self.inner.on_message(client, envelope, message)


@dataclass
class TestbedConfig:
    """Parameters of a lab instance."""

    defense: Defense = Defense.NONE
    victim_domain: str = "victim.example"
    greylist_delay: float = 300.0
    greylist_whitelist: Optional[Whitelist] = None
    #: recipients that bypass greylisting (the paper's control addresses)
    unprotected_recipients: Set[str] = field(default_factory=set)
    address_space: str = "192.0.2.0/24"
    bot_address_space: str = "198.51.100.0/24"


class Testbed:
    """One instantiated lab: simulator + victim domain + defence."""

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.scheduler = EventScheduler(Clock())
        self.clock = self.scheduler.clock
        self.zones = ZoneStore()
        self.resolver = StubResolver(self.zones, clock=self.clock)
        self.internet = VirtualInternet()
        self.server_pool = AddressPool(IPv4Network.parse(config.address_space))
        self.bot_pool = AddressPool(IPv4Network.parse(config.bot_address_space))

        self.greylist: Optional[GreylistPolicy] = None
        policy: ConnectionPolicy
        if config.defense in (Defense.GREYLISTING, Defense.BOTH):
            self.greylist = GreylistPolicy(
                clock=self.clock,
                delay=config.greylist_delay,
                whitelist=config.greylist_whitelist,
            )
            policy = self.greylist
        else:
            policy = ConnectionPolicy()
        if config.unprotected_recipients:
            policy = ExemptingPolicy(policy, config.unprotected_recipients)

        self.server = SMTPServer(
            hostname=f"smtp.{config.victim_domain}",
            clock=self.clock,
            policy=policy,
            local_domains=[config.victim_domain],
        )

        if config.defense in (Defense.NOLISTING, Defense.BOTH):
            self.domain_setup = setup_nolisting(
                self.internet,
                self.zones,
                self.server_pool,
                config.victim_domain,
                self.server.session_factory,
            )
        else:
            self.domain_setup = setup_single_mx(
                self.internet,
                self.zones,
                self.server_pool,
                config.victim_domain,
                self.server.session_factory,
            )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def allocate_bot_address(self) -> IPv4Address:
        return self.bot_pool.allocate()

    def run(self, horizon: float) -> None:
        """Advance the simulation to ``horizon`` seconds."""
        self.scheduler.run(until=horizon)

    def spam_delivered_to_protected(self) -> int:
        """Accepted envelopes excluding the unprotected control addresses."""
        unprotected = {r.lower() for r in self.config.unprotected_recipients}
        return sum(
            1
            for record in self.server.log
            if record.accepted and record.recipient.lower() not in unprotected
        )

    def spam_delivered_to_unprotected(self) -> int:
        unprotected = {r.lower() for r in self.config.unprotected_recipients}
        return sum(
            1
            for record in self.server.log
            if record.accepted and record.recipient.lower() in unprotected
        )

    def campaign_ids_seen(self) -> Set[str]:
        """Distinct campaigns observed at the server (single-task check)."""
        return {
            record.campaign_id
            for record in self.server.log
            if record.campaign_id is not None
        }

    def __repr__(self) -> str:
        return (
            f"Testbed(defense={self.config.defense.value}, "
            f"domain={self.config.victim_domain!r})"
        )
