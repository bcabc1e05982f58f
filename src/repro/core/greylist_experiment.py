"""Greylisting-vs-malware experiments (paper §V.A, Figures 3 and 4).

Runs a malware family against a greylisted server at a configurable
threshold and collects the raw material of the paper's figures:

* the per-message *delivery delay* sample (Figure 3's CDFs at 5 s and
  300 s thresholds), and
* the full *attempt timeline* — the age of every delivery attempt, marked
  failed or accepted (Figure 4's blue/red scatter at the 21 600 s
  threshold).

It also reproduces the §V.A control: a few unprotected addresses receive
the same campaign without greylisting, proving a single spam task was in
flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.cdf import EmpiricalCDF
from ..botnet.bot import BotAttemptOutcome
from ..botnet.campaign import SpamCampaign, make_recipient_list
from ..botnet.families import KELIHOS, FamilyProfile
from ..sim.rng import RandomStream
from .testbed import Defense, Testbed, TestbedConfig

#: Thresholds the paper sweeps (seconds).
PAPER_THRESHOLDS: Tuple[float, float, float] = (5.0, 300.0, 21600.0)


@dataclass
class AttemptPoint:
    """One dot of Figure 4: an attempt's age and whether it was accepted."""

    age: float                 # seconds since the task's first attempt
    delivered: bool
    task_index: int


@dataclass
class GreylistExperimentResult:
    """Everything one family-vs-threshold run produced."""

    family: str
    threshold: float
    num_messages: int
    delivered: int
    blocked: bool
    delivery_delays: List[float] = field(default_factory=list)
    attempt_points: List[AttemptPoint] = field(default_factory=list)
    campaigns_seen: int = 0
    unprotected_deliveries: int = 0

    def delay_cdf(self) -> EmpiricalCDF:
        """The Figure 3 CDF (only meaningful when anything was delivered)."""
        return EmpiricalCDF.from_samples(self.delivery_delays)

    @property
    def delivery_rate(self) -> float:
        if self.num_messages == 0:
            return 0.0
        return self.delivered / self.num_messages

    def failed_points(self) -> List[AttemptPoint]:
        """Figure 4's blue dots (attempts below the threshold)."""
        return [p for p in self.attempt_points if not p.delivered]

    def delivered_points(self) -> List[AttemptPoint]:
        """Figure 4's red dots (accepted attempts)."""
        return [p for p in self.attempt_points if p.delivered]

    def retransmission_gaps(self) -> List[float]:
        """Delays between consecutive attempts of each task.

        This is the quantity whose distribution shows the paper's three
        Figure 4 peaks (300-600 s, ~5000 s, 80-90 ks): the malware's
        retry-delay modes, independent of where each attempt's *age*
        relative to the greylisting threshold happens to fall.
        """
        gaps: List[float] = []
        by_task: Dict[int, List[float]] = {}
        for point in self.attempt_points:
            by_task.setdefault(point.task_index, []).append(point.age)
        for ages in by_task.values():
            ages.sort()
            gaps.extend(b - a for a, b in zip(ages, ages[1:]))
        return gaps


def run_greylist_experiment(
    family: FamilyProfile,
    threshold: float,
    num_messages: int = 100,
    seed: int = 23,
    horizon: float = 400000.0,
    unprotected_count: int = 2,
) -> GreylistExperimentResult:
    """Run one family against a greylisted server at one threshold."""
    domain = "victim.example"
    unprotected = {
        f"postmaster{i}@{domain}" for i in range(unprotected_count)
    }
    testbed = Testbed(
        TestbedConfig(
            defense=Defense.GREYLISTING,
            victim_domain=domain,
            greylist_delay=threshold,
            unprotected_recipients=unprotected,
        )
    )
    rng = RandomStream(seed, f"greylist:{family.name}:{threshold}")
    bot = family.build_bot(
        internet=testbed.internet,
        resolver=testbed.resolver,
        scheduler=testbed.scheduler,
        source_address=testbed.allocate_bot_address(),
        rng=rng,
    )
    recipients = make_recipient_list(domain, num_messages) + sorted(unprotected)
    campaign = SpamCampaign(
        sender=f"spam@{family.name.lower().replace('(', '').replace(')', '')}.example",
        recipients=recipients,
    )
    for job in campaign.single_recipient_jobs():
        bot.assign(job)
    testbed.run(horizon=horizon)

    protected_tasks = [
        task for task in bot.tasks if task.recipient not in unprotected
    ]
    delays = [
        task.delivery_delay
        for task in protected_tasks
        if task.delivery_delay is not None
    ]
    points: List[AttemptPoint] = []
    for task_index, task in enumerate(protected_tasks):
        for attempt in task.attempts:
            points.append(
                AttemptPoint(
                    age=attempt.timestamp - task.created_at,
                    delivered=(
                        attempt.outcome is BotAttemptOutcome.DELIVERED
                    ),
                    task_index=task_index,
                )
            )
    delivered = sum(1 for task in protected_tasks if task.delivered)
    return GreylistExperimentResult(
        family=family.name,
        threshold=threshold,
        num_messages=len(protected_tasks),
        delivered=delivered,
        blocked=(delivered == 0),
        delivery_delays=delays,
        attempt_points=points,
        campaigns_seen=len(testbed.campaign_ids_seen()),
        unprotected_deliveries=testbed.spam_delivered_to_unprotected(),
    )


def run_kelihos_threshold_sweep(
    thresholds: Tuple[float, ...] = PAPER_THRESHOLDS,
    num_messages: int = 100,
    seed: int = 23,
    horizon: float = 400000.0,
) -> List[GreylistExperimentResult]:
    """The paper's three-threshold Kelihos experiment (Figures 3-4)."""
    return [
        run_greylist_experiment(
            KELIHOS,
            threshold,
            num_messages=num_messages,
            seed=seed,
            horizon=horizon,
        )
        for threshold in thresholds
    ]
