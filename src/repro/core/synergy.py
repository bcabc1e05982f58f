"""Greylisting x blacklisting synergy (the paper's §II rebuttal, measured).

Greylisting alone does not stop retrying malware (Kelihos, Figure 3), and
a reactive blacklist alone is too slow for fire-and-forget delivery — the
first attempt lands before the sender is listed.  The supporters' argument
is that the two *combine*: greylisting's forced delay gives the blacklist
time to list a mass-spammer, so the retry that would have passed the
greylist hits a DNSBL rejection instead.

:func:`run_synergy_experiment` measures exactly that: one bot family vs a
server running (a) greylisting only, (b) DNSBL only, (c) both stacked,
with a telemetry feed listing the bot's address at a configurable
reporting rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..blacklist.dnsbl import ReactiveBlacklist
from ..blacklist.feed import TelemetryFeed
from ..blacklist.policy import DNSBLPolicy
from ..botnet.campaign import SpamCampaign, make_recipient_list
from ..botnet.families import KELIHOS, FamilyProfile
from ..dns.nolisting import setup_single_mx
from ..dns.resolver import StubResolver
from ..dns.zone import ZoneStore
from ..greylist.policy import GreylistPolicy
from ..net.address import AddressPool, IPv4Network
from ..net.network import VirtualInternet
from ..sim.clock import Clock
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream
from ..smtp.server import CompositePolicy, ConnectionPolicy, SMTPServer


@dataclass
class SynergyResult:
    """Outcome of one configuration run."""

    configuration: str            # "greylist", "dnsbl", "both"
    greylist_delay: Optional[float]
    reports_per_hour: Optional[float]
    num_messages: int
    delivered: int
    dnsbl_rejections: int
    listed_after: Optional[float]  # when the bot's IP got listed (if ever)

    @property
    def blocked(self) -> bool:
        return self.delivered == 0

    @property
    def delivery_rate(self) -> float:
        if self.num_messages == 0:
            return 0.0
        return self.delivered / self.num_messages


def run_synergy_experiment(
    configuration: str,
    family: FamilyProfile = KELIHOS,
    greylist_delay: float = 300.0,
    reports_per_hour: float = 60.0,
    detection_threshold: int = 10,
    processing_delay: float = 60.0,
    num_messages: int = 20,
    seed: int = 31,
    horizon: float = 400000.0,
) -> SynergyResult:
    """Run one bot against one policy configuration.

    ``configuration`` is one of ``"greylist"``, ``"dnsbl"``, ``"both"``.
    With the defaults, the time for the blacklist to list the bot is
    dominated by the telemetry rate: roughly ``detection_threshold /
    reports_per_hour`` hours plus the processing delay.  The victim
    server's own sightings do not count, so a single 20-recipient burst
    does not trip the threshold by itself and the rate lever stays
    meaningful.
    """
    if configuration not in ("greylist", "dnsbl", "both"):
        raise ValueError(f"unknown configuration {configuration!r}")

    scheduler = EventScheduler(Clock())
    internet = VirtualInternet()
    zones = ZoneStore()
    resolver = StubResolver(zones, clock=scheduler.clock)
    server_pool = AddressPool(IPv4Network.parse("192.0.2.0/24"))
    bot_pool = AddressPool(IPv4Network.parse("198.51.100.0/24"))
    rng = RandomStream(seed, f"synergy:{configuration}")

    blacklist = ReactiveBlacklist(
        scheduler.clock,
        detection_threshold=detection_threshold,
        processing_delay=processing_delay,
    )
    feed = TelemetryFeed(
        scheduler,
        blacklist,
        rng.split("feed"),
        reports_per_hour=reports_per_hour,
    )

    policies: List[ConnectionPolicy] = []
    dnsbl_policy: Optional[DNSBLPolicy] = None
    if configuration in ("dnsbl", "both"):
        dnsbl_policy = DNSBLPolicy(blacklist)
        policies.append(dnsbl_policy)
    if configuration in ("greylist", "both"):
        policies.append(GreylistPolicy(clock=scheduler.clock, delay=greylist_delay))

    server = SMTPServer(
        hostname="smtp.victim.example",
        clock=scheduler.clock,
        policy=CompositePolicy(policies),
        local_domains=["victim.example"],
    )
    setup_single_mx(
        internet, zones, server_pool, "victim.example", server.session_factory
    )

    bot = family.build_bot(
        internet=internet,
        resolver=resolver,
        scheduler=scheduler,
        source_address=bot_pool.allocate(),
        rng=rng.split("bot"),
    )
    # The bot starts spraying the whole internet at t=0: the telemetry feed
    # begins reporting its address to the blacklist.
    feed.arm(bot.source_address)

    campaign = SpamCampaign(
        sender="spam@botnet.example",
        recipients=make_recipient_list("victim.example", num_messages),
    )
    # One private retry-randomness stream per message.
    for index, job in enumerate(campaign.single_recipient_jobs()):
        bot.assign(job, rng=rng.split(f"msg:{index}"))
    scheduler.run(until=horizon)

    return SynergyResult(
        configuration=configuration,
        greylist_delay=(
            greylist_delay if configuration in ("greylist", "both") else None
        ),
        reports_per_hour=(
            reports_per_hour if configuration in ("dnsbl", "both") else None
        ),
        num_messages=num_messages,
        delivered=len(bot.delivered_tasks),
        dnsbl_rejections=dnsbl_policy.rejections if dnsbl_policy else 0,
        listed_after=blacklist.listed_at(bot.source_address),
    )


def run_synergy_comparison(
    family: FamilyProfile = KELIHOS,
    greylist_delay: float = 300.0,
    reports_per_hour: float = 200.0,
    num_messages: int = 20,
    seed: int = 31,
) -> List[SynergyResult]:
    """The three-way comparison: each defence alone, then stacked.

    The default telemetry rate models an aggressive mass-spammer that the
    ecosystem notices within minutes — the kind of sender for which the
    paper's §II rebuttal ("the delay can be enough for the sender to be
    ... added into popular spammer blacklists") plays out: each defence
    alone fails, the stack blocks everything.
    """
    return [
        run_synergy_experiment(
            configuration,
            family=family,
            greylist_delay=greylist_delay,
            reports_per_hour=reports_per_hour,
            num_messages=num_messages,
            seed=seed,
        )
        for configuration in ("greylist", "dnsbl", "both")
    ]


def sweep_listing_speed(
    rates_per_hour: Sequence[float] = (2.0, 6.0, 20.0, 60.0, 200.0),
    greylist_delay: float = 300.0,
    num_messages: int = 20,
    seed: int = 31,
) -> List[SynergyResult]:
    """How fast must the blacklist be for the combination to win?

    Sweeps the telemetry reporting rate (a proxy for how aggressively the
    spammer sprays, hence how quickly it is noticed) with the stacked
    configuration.
    """
    return [
        run_synergy_experiment(
            "both",
            greylist_delay=greylist_delay,
            reports_per_hour=rate,
            num_messages=num_messages,
            seed=seed,
        )
        for rate in rates_per_hour
    ]


def sweep_greylist_delay(
    delays: Sequence[float] = (5.0, 300.0, 3600.0, 21600.0),
    reports_per_hour: float = 60.0,
    num_messages: int = 20,
    seed: int = 31,
    workers: int = 1,
    cache=None,
) -> List[SynergyResult]:
    """Which greylisting threshold buys the blacklist enough time?

    Against a fast retrier like Kelihos, a short threshold lets the retry
    through before the blacklist catches up; a threshold longer than the
    listing time converts greylisting's useless-alone delay into a win —
    the quantitative version of the paper's §II rebuttal.

    Each delay point is an independent simulation; the sweep fans them
    over ``workers`` processes and memoizes points in ``cache``.
    """
    from ..runner.pool import run_tasks
    from ..runner.shards import synergy_delay_task

    payloads = [
        {
            "greylist_delay": delay,
            "reports_per_hour": reports_per_hour,
            "num_messages": num_messages,
            "seed": seed,
        }
        for delay in delays
    ]
    rows = run_tasks(
        synergy_delay_task,
        payloads,
        workers=workers,
        cache=cache,
        experiment="synergy-delay",
    )
    return [SynergyResult(**row) for row in rows]
