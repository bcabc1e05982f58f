"""The university mail-server deployment (paper §V.B, Figure 5).

The paper's dataset is four months of anonymized greylist logs from the
mail server of the CS department of Università degli Studi di Milano,
greylisting threshold 300 s.  We substitute a synthetic deployment: benign
mail arrives over the same window from a realistic *mixture of sender
behaviours* — the documented MTA retry schedules of Table IV, the webmail
farms of Table III (multi-IP pools included), sparse automated notifiers,
and a few non-retrying clients — and every attempt flows through the real
:class:`~repro.greylist.policy.GreylistPolicy` on the event scheduler.

The Figure 5 CDF shape is an *output* of this simulation, not an input:
slow-rising because half the senders' first useful retry lands past ten
minutes, with a long tail driven by multi-IP farms whose pool rotation
keeps resetting the greylist triplet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..greylist.policy import GreylistPolicy
from ..greylist.whitelist import Whitelist
from ..mta.profiles import PROFILES
from ..net.address import AddressPool, IPv4Network
from ..sim.clock import Clock
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream
from ..smtp.message import validate_address
from ..webmail.provider import ProviderSpec
from ..webmail.providers import PROVIDER_BY_NAME
from .records import GreylistedMessageLog, anonymize

DAY = 86400.0
TEN_HOURS = 36000.0


def _mta_spec(name: str) -> ProviderSpec:
    """Turn a Table IV MTA profile into an attempt-schedule spec."""
    profile = PROFILES[name]
    ages = profile.schedule.attempt_times(TEN_HOURS)[1:]
    return ProviderSpec(
        name=f"mta:{name}",
        retry_ages=ages,
        ip_pool_size=1,
        continuation_interval=(ages[-1] - ages[-2]) if len(ages) >= 2 else 3600.0,
        max_attempts=100,
    )


SpecFactory = Callable[[RandomStream], ProviderSpec]

#: A sender-mix entry's behaviour: one fixed spec for every message, or a
#: factory that draws each message's spec from its own stream.
SenderSpec = Union[ProviderSpec, SpecFactory]


def _sparse_notifier(rng: RandomStream) -> ProviderSpec:
    """Automated senders (cron jobs, ticketing systems) with sparse retries."""
    first = rng.uniform(1800.0, 5400.0)
    return ProviderSpec(
        name="sparse-notifier",
        retry_ages=(first, first * 2.2, first * 4.8),
        ip_pool_size=1,
        continuation_interval=first * 4.0,
        max_attempts=12,
    )


def _impatient_mta(rng: RandomStream) -> ProviderSpec:
    """Small MTAs with custom, quickish retry timers."""
    first = rng.uniform(350.0, 900.0)
    return ProviderSpec(
        name="impatient-mta",
        retry_ages=(first, first * 2, first * 4),
        ip_pool_size=1,
        continuation_interval=first * 3,
        max_attempts=30,
    )


#: Broken notification scripts that never retry (and lose their mail).
_NO_RETRY = ProviderSpec(
    name="no-retry",
    retry_ages=(),
    ip_pool_size=1,
    continuation_interval=None,
    max_attempts=1,
)


#: Default benign-traffic mixture: (kind label, weight, sender spec).
DEFAULT_SENDER_MIX: Tuple[Tuple[str, float, SenderSpec], ...] = (
    ("mta:postfix", 0.20, _mta_spec("postfix")),
    ("mta:sendmail", 0.12, _mta_spec("sendmail")),
    ("mta:exim", 0.09, _mta_spec("exim")),
    ("mta:qmail", 0.07, _mta_spec("qmail")),
    ("mta:courier", 0.07, _mta_spec("courier")),
    ("mta:exchange", 0.09, _mta_spec("exchange")),
    ("webmail:gmail.com", 0.04, PROVIDER_BY_NAME["gmail.com"]),
    ("webmail:yahoo.co.uk", 0.04, PROVIDER_BY_NAME["yahoo.co.uk"]),
    ("webmail:mail.ru", 0.03, PROVIDER_BY_NAME["mail.ru"]),
    ("webmail:gmx.com", 0.03, PROVIDER_BY_NAME["gmx.com"]),
    ("webmail:mail.com", 0.03, PROVIDER_BY_NAME["mail.com"]),
    ("webmail:qq.com", 0.02, PROVIDER_BY_NAME["qq.com"]),
    ("sparse-notifier", 0.09, _sparse_notifier),
    ("impatient-mta", 0.05, _impatient_mta),
    ("no-retry", 0.03, _NO_RETRY),
)


@dataclass
class DeploymentConfig:
    """Knobs of the synthetic deployment."""

    threshold: float = 300.0
    duration_days: float = 120.0           # January-April 2015
    num_messages: int = 2000
    sender_mix: Sequence[Tuple[str, float, SenderSpec]] = DEFAULT_SENDER_MIX
    whitelist: Optional[Whitelist] = None
    address_space: str = "172.16.0.0/12"

    def __post_init__(self) -> None:
        if not 0 <= self.threshold < math.inf:
            raise ValueError(
                f"threshold must be finite and non-negative, got {self.threshold!r}"
            )
        if self.num_messages < 1:
            raise ValueError("need at least one message")
        if not self.sender_mix:
            raise ValueError("sender mix cannot be empty")


@dataclass
class DeploymentResult:
    """Output of one deployment run."""

    logs: List[GreylistedMessageLog]
    policy: GreylistPolicy
    kind_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def delivered(self) -> List[GreylistedMessageLog]:
        return [log for log in self.logs if log.delivered]

    @property
    def lost(self) -> List[GreylistedMessageLog]:
        return [log for log in self.logs if not log.delivered]

    def delivery_delays(self) -> List[float]:
        return [
            log.delivery_delay
            for log in self.delivered
            if log.delivery_delay is not None
        ]

    @property
    def loss_rate(self) -> float:
        if not self.logs:
            return 0.0
        return len(self.lost) / len(self.logs)


class UniversityDeployment:
    """Runs the synthetic four-month greylisted deployment."""

    def __init__(self, config: DeploymentConfig, seed: int) -> None:
        self.config = config
        self.seed = seed

    def run(self) -> DeploymentResult:
        rng = RandomStream(self.seed, "university")
        scheduler = EventScheduler(Clock())
        policy = GreylistPolicy(
            clock=scheduler.clock,
            delay=self.config.threshold,
            whitelist=self.config.whitelist,
        )
        pool = AddressPool(IPv4Network.parse(self.config.address_space))
        logs: List[GreylistedMessageLog] = []
        kind_counts: Dict[str, int] = {}

        arrival_rng = rng.split("arrivals")
        mix_rng = rng.split("mix")
        spec_rng = rng.split("specs")
        weights = [w for (_, w, _) in self.config.sender_mix]

        horizon = self.config.duration_days * DAY
        arrivals = sorted(
            arrival_rng.uniform(0.0, horizon)
            for _ in range(self.config.num_messages)
        )

        for index, arrival in enumerate(arrivals):
            kind, _, spec = self.config.sender_mix[
                mix_rng.weighted_index(weights)
            ]
            kind_counts[kind] = kind_counts.get(kind, 0) + 1
            if not isinstance(spec, ProviderSpec):
                # Only a factory draws.  A split depends on nothing but
                # (seed, label), so skipping it for fixed specs moves no draw.
                spec = spec(spec_rng.split(f"msg{index}"))
            addresses = pool.allocate_many(spec.ip_pool_size)
            if kind.startswith("webmail:"):
                # Real provider domain, so provider whitelists can match.
                sender_domain = kind.split(":", 1)[1]
            else:
                sender_domain = f"{kind.split(':')[-1].replace('_', '')}.example"
            # Validated once here: every retry passes the same canonical
            # pair to the policy, which does not validate again.
            sender = validate_address(f"user{index}@{sender_domain}")
            recipient = validate_address(f"staff{index % 97}@cs.unimi.example")
            log = GreylistedMessageLog(
                message_key=anonymize(sender, recipient, str(addresses[0])),
                sender_kind=kind,
            )
            logs.append(log)
            self._schedule_message(
                scheduler, policy, spec, addresses, sender, recipient,
                arrival, log,
            )

        scheduler.run()
        return DeploymentResult(
            logs=logs, policy=policy, kind_counts=kind_counts
        )

    @staticmethod
    def _schedule_message(
        scheduler: EventScheduler,
        policy: GreylistPolicy,
        spec: ProviderSpec,
        addresses: List,
        sender: str,
        recipient: str,
        arrival: float,
        log: GreylistedMessageLog,
    ) -> None:
        def attempt(number: int) -> None:
            if log.delivered:
                return
            client = addresses[spec.pool_index(number)]
            log.attempt_times.append(scheduler.now)
            decision = policy.on_rcpt_to(client, sender, recipient)
            if decision.accept:
                log.delivered = True
                return
            next_age = spec.attempt_age(number + 1)
            if next_age is None:
                return
            fire_at = arrival + next_age
            scheduler.schedule_at(
                max(fire_at, scheduler.now), lambda: attempt(number + 1)
            )

        scheduler.schedule_at(arrival, lambda: attempt(1))
