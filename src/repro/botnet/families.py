"""The four malware families of the study (paper Table I + §IV-V findings).

Each family is characterised by the two traits the paper measured:

================  ==================  ====================  ==========================
Family            MX behaviour        Retry behaviour       Consequence
================  ==================  ====================  ==========================
Cutwail           secondary-only      fire-and-forget       beats nolisting, loses to
                                                            greylisting
Kelihos           primary-only        empirical retrier     loses to nolisting, beats
                                                            greylisting
Darkmailer        RFC-compliant       fire-and-forget       beats nolisting, loses to
                                                            greylisting
Darkmailer v3     RFC-compliant       fire-and-forget       beats nolisting, loses to
                                                            greylisting
================  ==================  ====================  ==========================

Spam shares come from the Symantec 2014 report as cited in Table I; the
four families together account for 93.02 % of botnet spam, and with 76 % of
world spam botnet-originated, for 70.69 % of global spam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..dns.resolver import StubResolver
from ..net.address import IPv4Address
from ..net.network import VirtualInternet
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream
from .behavior import MXBehavior
from .bot import SpamBot
from .retry import BotRetryModel, FireAndForget, kelihos_retry_model

RetryFactory = Callable[[], BotRetryModel]


@dataclass(frozen=True)
class FamilyProfile:
    """Static description of one malware family."""

    name: str
    mx_behavior: MXBehavior
    retry_factory: RetryFactory
    botnet_spam_share: float      # fraction of 2014 botnet spam (Table I)
    sample_count: int             # binaries analysed in the paper (Table I)
    walks_mx_on_failure: bool = True

    @property
    def retries(self) -> bool:
        return not isinstance(self.retry_factory(), FireAndForget)

    @property
    def helo_name(self) -> str:
        """The family's HELO string — its SMTP dialect identity.

        Also the dialect half of the internet-scale engine's per-run
        session memo key, so it must stay a pure function of the family.
        """
        return f"{self.name.lower()}-bot.invalid.example"

    def build_bot(
        self,
        internet: VirtualInternet,
        resolver: StubResolver,
        scheduler: EventScheduler,
        source_address: IPv4Address,
        rng: RandomStream,
    ) -> SpamBot:
        """Instantiate an infected machine running this family."""
        return SpamBot(
            internet=internet,
            resolver=resolver,
            scheduler=scheduler,
            source_address=source_address,
            mx_behavior=self.mx_behavior,
            retry_model=self.retry_factory(),
            rng=rng,
            helo_name=self.helo_name,
            walks_mx_on_failure=self.walks_mx_on_failure,
        )


CUTWAIL = FamilyProfile(
    name="Cutwail",
    mx_behavior=MXBehavior.SECONDARY_ONLY,
    retry_factory=FireAndForget,
    botnet_spam_share=0.4690,
    sample_count=3,
    # Single-shot: a refused connection to its chosen target ends the
    # attempt (it never had a second target anyway).
    walks_mx_on_failure=False,
)

KELIHOS = FamilyProfile(
    name="Kelihos",
    mx_behavior=MXBehavior.PRIMARY_ONLY,
    retry_factory=kelihos_retry_model,
    botnet_spam_share=0.3633,
    sample_count=6,
    walks_mx_on_failure=False,
)

DARKMAILER = FamilyProfile(
    name="Darkmailer",
    mx_behavior=MXBehavior.RFC_COMPLIANT,
    retry_factory=FireAndForget,
    botnet_spam_share=0.0721,
    sample_count=1,
    walks_mx_on_failure=True,
)

DARKMAILER_V3 = FamilyProfile(
    name="Darkmailer(v3)",
    mx_behavior=MXBehavior.RFC_COMPLIANT,
    retry_factory=FireAndForget,
    botnet_spam_share=0.0258,
    sample_count=1,
    walks_mx_on_failure=True,
)

#: Table I row order.
FAMILIES: Tuple[FamilyProfile, ...] = (
    CUTWAIL,
    KELIHOS,
    DARKMAILER,
    DARKMAILER_V3,
)

FAMILY_BY_NAME: Dict[str, FamilyProfile] = {f.name: f for f in FAMILIES}

#: Fraction of 2014 world spam sent from botnets (Symantec, via the paper).
BOTNET_FRACTION_OF_GLOBAL_SPAM = 0.76

#: Table I totals.
TOTAL_BOTNET_SPAM_SHARE = sum(f.botnet_spam_share for f in FAMILIES)
TOTAL_GLOBAL_SPAM_SHARE = 0.7069


def global_spam_share(family: FamilyProfile) -> float:
    """A family's share of *global* spam (botnet share x botnet fraction)."""
    return family.botnet_spam_share * BOTNET_FRACTION_OF_GLOBAL_SPAM
