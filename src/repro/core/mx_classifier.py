"""Observed MX-behaviour classification (paper §IV.B).

Given a malware sample, run it against a domain where every exchanger
resolves but *refuses connections* and infer the sample's category from
which hosts it tried, in which order:

* only the highest-priority host → primary only;
* only the lowest-priority host → secondary only;
* every host, in priority order → RFC compliant;
* every host, out of order → all MX.

A dead-MX domain is the right observation probe because the RFC's MX walk
only manifests on connection failure — against an accepting primary even a
fully compliant client never touches the secondaries.  (The paper observed
the same traces through its nolisting experiments, where the primary
refuses connections by construction.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..botnet.behavior import MXBehavior
from ..botnet.campaign import SpamCampaign, make_recipient_list
from ..botnet.samples import Sample
from ..net.host import VirtualHost
from ..sim.rng import RandomStream
from .testbed import Defense, Testbed, TestbedConfig


@dataclass
class MXClassification:
    """Outcome of classifying one sample."""

    sample_label: str
    contacted: List[str]               # MX hostnames, in contact order
    inferred: Optional[MXBehavior]
    expected: MXBehavior


def infer_behavior(
    contacted: List[str], ordered_mx: List[str]
) -> Optional[MXBehavior]:
    """Map a contact trace onto the taxonomy.

    ``ordered_mx`` is the domain's exchanger list in ascending preference.
    """
    if not contacted or not ordered_mx:
        return None
    distinct = list(dict.fromkeys(contacted))  # order-preserving dedup
    primary = ordered_mx[0]
    lowest = ordered_mx[-1]
    if distinct == [primary]:
        return MXBehavior.PRIMARY_ONLY
    if distinct == [lowest]:
        return MXBehavior.SECONDARY_ONLY
    if set(distinct) == set(ordered_mx):
        if distinct == list(ordered_mx):
            return MXBehavior.RFC_COMPLIANT
        return MXBehavior.ALL_MX
    # Partial coverage: a strict prefix of the priority order is compliant
    # behaviour that stopped early; anything else is a scrambled walk.
    if distinct == list(ordered_mx)[: len(distinct)]:
        return MXBehavior.RFC_COMPLIANT
    return MXBehavior.ALL_MX


def _setup_dead_mx_domain(testbed: Testbed, domain: str, count: int) -> List[str]:
    """A domain whose ``count`` exchangers all resolve but refuse port 25."""
    zone = testbed.zones.get_or_create(domain)
    hostnames: List[str] = []
    for index in range(count):
        hostname = f"mx{index}.{domain}"
        address = testbed.server_pool.allocate()
        zone.add_a(hostname, address)
        zone.add_mx((index + 1) * 10, hostname)
        testbed.internet.register(VirtualHost(hostname, [address]))
        hostnames.append(hostname)
    return hostnames


def classify_sample(
    sample: Sample,
    seed: int = 7,
    recipients: int = 1,
    observation_window: float = 1800.0,
) -> MXClassification:
    """Run one sample against a dead multi-MX domain and classify its walk.

    ``observation_window`` defaults to the paper's 30-minute sandbox run.
    """
    testbed = Testbed(
        TestbedConfig(defense=Defense.NONE, victim_domain="observe.example")
    )
    domain = "trace.observe.example"
    ordered_mx = _setup_dead_mx_domain(testbed, domain, count=3)

    rng = RandomStream(seed, "mx-classify")
    bot = sample.build_bot(
        internet=testbed.internet,
        resolver=testbed.resolver,
        scheduler=testbed.scheduler,
        source_address=testbed.allocate_bot_address(),
        rng=rng,
    )
    campaign = SpamCampaign(
        sender="spammer@botnet.example",
        recipients=make_recipient_list(domain, recipients),
    )
    for job in campaign.single_recipient_jobs():
        bot.assign(job)
    testbed.run(horizon=observation_window)

    contacted = [
        attempt.target
        for attempt in bot.all_attempts()
        if attempt.target is not None
    ]
    inferred = infer_behavior(contacted, ordered_mx)
    return MXClassification(
        sample_label=sample.label,
        contacted=contacted,
        inferred=inferred,
        expected=sample.family.mx_behavior,
    )
