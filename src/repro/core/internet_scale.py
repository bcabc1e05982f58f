"""Internet-scale synthesis: adoption rates x family mix -> spam blocked.

The paper measures two things separately: *who deploys* the techniques
(Figure 2) and *what each technique blocks* (Table II).  This experiment
composes them: a small internet of receiver domains — some greylisted,
some nolisted, some undefended — receives a spam wave whose family mix
follows Table I, and we measure the fraction of spam actually delivered.

Because every delivery is simulated end to end (DNS, MX walking, retries,
triplets), the measured block rate can be checked against the analytic
prediction ``sum_family share_f x P(defended domain blocks f)`` — closing
the loop between the paper's adoption and effectiveness halves, and
answering "what if adoption grew?" by sweeping the deployment rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..botnet.behavior import MXBehavior, defeats_nolisting
from ..botnet.bot import BotAttemptOutcome
from ..botnet.families import FAMILIES, FamilyProfile
from ..botnet.retry import FireAndForget
from ..dns.nolisting import setup_nolisting, setup_single_mx
from ..dns.resolver import StubResolver
from ..dns.zone import ZoneStore
from ..greylist.policy import GreylistPolicy
from ..net.address import AddressPool, IPv4Network
from ..net.network import VirtualInternet
from ..sim.clock import Clock
from ..sim.events import EventScheduler
from ..sim.rng import RandomStream
from ..smtp.message import Message
from ..smtp.server import SMTPServer


@dataclass
class InternetScaleResult:
    """Measured spam flow through a mixed-deployment internet."""

    num_domains: int
    greylisting_rate: float
    nolisting_rate: float
    spam_sent: int
    spam_delivered: int
    per_family_delivered: Dict[str, int] = field(default_factory=dict)
    per_family_sent: Dict[str, int] = field(default_factory=dict)
    predicted_block_rate: float = 0.0

    @property
    def block_rate(self) -> float:
        if self.spam_sent == 0:
            return 0.0
        return 1.0 - self.spam_delivered / self.spam_sent


def _family_blocked_probability(
    family: FamilyProfile, greylisting_rate: float, nolisting_rate: float
) -> float:
    """Analytic P(block) for one family under random deployment.

    Greylisting blocks non-retrying families; nolisting blocks
    primary-only families.  Deployments are disjoint in this model
    (a domain is nolisted XOR possibly greylisted).
    """
    blocked = 0.0
    if not defeats_nolisting(family.mx_behavior):
        blocked += nolisting_rate
    if not family.retries:
        blocked += greylisting_rate
    return min(blocked, 1.0)


def _check_num_domains(num_domains: int) -> None:
    """Reject an empty receiver internet before any work starts.

    The wave targets a random receiver domain per message, so with no
    domains there is nothing to deliver to.
    """
    if num_domains < 1:
        raise ValueError(f"num_domains must be >= 1, got {num_domains}")


def _check_rates(greylisting_rate: float, nolisting_rate: float) -> None:
    """Reject deployment rates that are not a share of the domains."""
    for name, rate in (
        ("greylisting_rate", greylisting_rate),
        ("nolisting_rate", nolisting_rate),
    ):
        if not 0.0 <= rate <= 1.0:  # NaN fails both comparisons
            raise ValueError(f"{name} must lie in [0, 1], got {rate}")
    if greylisting_rate + nolisting_rate > 1.0:
        raise ValueError("deployment rates must sum to at most 1")


def run_internet_scale(
    num_domains: int = 60,
    greylisting_rate: float = 0.3,
    nolisting_rate: float = 0.1,
    messages: int = 400,
    greylist_delay: float = 300.0,
    seed: int = 61,
    horizon: float = 400000.0,
    engine: str = "columnar",
    chunk_domains: int = 100_000,
) -> InternetScaleResult:
    """Run one spam wave through a mixed-deployment internet.

    ``engine="columnar"``, the default, collapses the wave into (family x
    phase) classes, drives one *real* session per class and run (see
    :mod:`repro.core.playbooks`) and replays only the per-message
    retry-delay draws.  It *streams* the receiver internet's
    deployment rolls in chunks of ``chunk_domains`` (see
    :func:`repro.scan.columnar.stream_deployment_rolls`) and bins only the
    targeted ones — peak memory is one chunk plus the wave, independent
    of ``num_domains``, which is what lifts the sweep to 10M domains.
    ``engine="object"`` is the oracle: it simulates every DNS
    lookup, connection and SMTP dialogue on the event scheduler, and
    produces the identical result, and ignores ``chunk_domains``.

    Both deployment rates must lie in [0, 1] and sum to at most 1.
    """
    if engine not in ("object", "columnar"):
        raise ValueError(f"unknown internet-scale engine {engine!r}")
    _check_num_domains(num_domains)
    _check_rates(greylisting_rate, nolisting_rate)
    if engine == "columnar":
        return _run_internet_scale_columnar(
            num_domains=num_domains,
            greylisting_rate=greylisting_rate,
            nolisting_rate=nolisting_rate,
            messages=messages,
            greylist_delay=greylist_delay,
            seed=seed,
            horizon=horizon,
            chunk_domains=chunk_domains,
        )
    rng = RandomStream(seed, "internet-scale")
    scheduler = EventScheduler(Clock())
    internet = VirtualInternet()
    zones = ZoneStore()
    resolver = StubResolver(zones, clock=scheduler.clock)
    server_pool = AddressPool(IPv4Network.parse("10.0.0.0/16"))
    bot_pool = AddressPool(IPv4Network.parse("198.51.100.0/24"))

    # --- receiver domains with a randomized deployment mix ----------------
    deploy_rng = rng.split("deployments")
    domains: List[str] = []
    for index in range(num_domains):
        domain = f"site{index:04d}.example"
        domains.append(domain)
        roll = deploy_rng.random()
        if roll < nolisting_rate:
            policy = None
            builder = setup_nolisting
        elif roll < nolisting_rate + greylisting_rate:
            policy = GreylistPolicy(clock=scheduler.clock, delay=greylist_delay)
            builder = setup_single_mx
        else:
            policy = None
            builder = setup_single_mx
        server = SMTPServer(
            hostname=f"smtp.{domain}",
            clock=scheduler.clock,
            policy=policy,
            local_domains=[domain],
        )
        builder(internet, zones, server_pool, domain, server.session_factory)

    # --- the spam wave: family mix per Table I ----------------------------
    bots = {
        family.name: family.build_bot(
            internet=internet,
            resolver=resolver,
            scheduler=scheduler,
            source_address=bot_pool.allocate(),
            rng=rng.split(f"bot:{family.name}"),
        )
        for family in FAMILIES
    }
    weights = [family.botnet_spam_share for family in FAMILIES]
    mix_rng = rng.split("mix")
    target_rng = rng.split("targets")
    per_family_sent: Dict[str, int] = {f.name: 0 for f in FAMILIES}
    for index in range(messages):
        family = FAMILIES[mix_rng.weighted_index(weights)]
        domain = target_rng.choice(domains)
        per_family_sent[family.name] += 1
        # One private retry-randomness stream per message: tasks stay
        # independent of scheduler interleaving, which is what lets the
        # columnar engine replay them without running the event loop.
        bots[family.name].assign(
            Message(
                sender=f"spam{index}@botnet.example",
                recipients=[f"user{index % 17}@{domain}"],
            ),
            rng=rng.split(f"msg:{index}"),
        )

    scheduler.run(until=horizon)

    per_family_delivered = {
        name: len(bot.delivered_tasks) for name, bot in bots.items()
    }
    return _assemble_result(
        num_domains,
        greylisting_rate,
        nolisting_rate,
        per_family_sent,
        per_family_delivered,
    )


def _assemble_result(
    num_domains: int,
    greylisting_rate: float,
    nolisting_rate: float,
    per_family_sent: Dict[str, int],
    per_family_delivered: Dict[str, int],
) -> InternetScaleResult:
    """Fold per-family tallies into the result (shared by both engines)."""
    # Normalize the analytic prediction over the *sent* mix.
    total_sent = sum(per_family_sent.values())
    predicted = sum(
        per_family_sent[family.name]
        * _family_blocked_probability(
            family, greylisting_rate, nolisting_rate
        )
        for family in FAMILIES
    ) / total_sent if total_sent else 0.0

    return InternetScaleResult(
        num_domains=num_domains,
        greylisting_rate=greylisting_rate,
        nolisting_rate=nolisting_rate,
        spam_sent=total_sent,
        spam_delivered=sum(per_family_delivered.values()),
        per_family_delivered=per_family_delivered,
        per_family_sent=per_family_sent,
        predicted_block_rate=predicted,
    )


#: Deployment kinds a receiver domain can be in (disjoint in this model).
_PLAIN, _NOLISTED, _GREYLISTED = "plain", "nolisted", "greylisted"


def _replay_wave(
    rng: RandomStream, messages: int, num_domains: int
) -> List[tuple]:
    """Replay the wave's family-mix and target draws verbatim.

    Returns ``(message index, family, target domain index)`` triples.  The
    mix and target streams are independent splits, so draining them here —
    before any deployment work — consumes exactly the draws the object
    path's per-message loop consumes.  ``choice()`` draws depend only on
    the sequence length, so picking from a ``range`` replays the object
    path's pick out of the name list exactly.
    """
    weights = [family.botnet_spam_share for family in FAMILIES]
    mix_rng = rng.split("mix")
    target_rng = rng.split("targets")
    domain_indices = range(num_domains)
    return [
        (
            index,
            FAMILIES[mix_rng.weighted_index(weights)],
            target_rng.choice(domain_indices),
        )
        for index in range(messages)
    ]


def _resolve_wave(
    wave: List[tuple],
    deployment_of,
    rng: RandomStream,
    greylist_delay: float,
    horizon: float,
) -> tuple:
    """Resolve every message of a replayed wave through class sessions.

    The core of the columnar engine:

    * a nolisted target blocks primary-only senders at the TCP layer (no
      session exists) and is an open door for everyone else;
    * a plain target delivers on the first real dialogue;
    * a greylisted target defers the first attempt, after which the
      family's *real* retry model — fed by the same ``msg:{index}``
      private stream the object path's task uses — decides arithmetically
      whether some retry lands at triplet age >= the threshold before the
      horizon or the attempt budget runs out.

    Soundness: retry draws are task-private, greylist triplets are unique
    per message (unique senders), and no other state couples messages, so
    outcomes depend only on (family, deployment kind, retry-draw stream) —
    which is exactly what is replayed.  ``deployment_of`` maps a target
    domain index to its deployment kind, backed by the streamed chunks'
    targeted entries only.

    Each (HELO name, phase) class drives one real session, memoized for
    this run only: with four phases per family, a run drives at most
    sixteen sessions.
    """
    from .playbooks import build_playbook

    sessions: Dict[Tuple[str, str], BotAttemptOutcome] = {}

    def session(helo_name: str, phase: str) -> BotAttemptOutcome:
        key = (helo_name, phase)
        if key not in sessions:
            sessions[key] = build_playbook(helo_name, phase, greylist_delay)
        return sessions[key]

    per_family_sent: Dict[str, int] = {f.name: 0 for f in FAMILIES}
    per_family_delivered: Dict[str, int] = {f.name: 0 for f in FAMILIES}

    for index, family, target in wave:
        deployment = deployment_of(target)
        per_family_sent[family.name] += 1

        if (
            deployment == _NOLISTED
            and family.mx_behavior is MXBehavior.PRIMARY_ONLY
        ):
            # Dead primary, and this family never walks to the live
            # secondary: every attempt is a refused connection.
            continue
        if deployment != _GREYLISTED:
            if session(family.helo_name, "open") is BotAttemptOutcome.DELIVERED:
                per_family_delivered[family.name] += 1
            continue

        first = session(family.helo_name, "new")
        if first is BotAttemptOutcome.DELIVERED:
            per_family_delivered[family.name] += 1
            continue
        if first is not BotAttemptOutcome.DEFERRED:
            continue  # permanent rejection: the bot abandons immediately
        model = family.retry_factory()
        if isinstance(model, FireAndForget):
            continue  # one shot, already deferred
        task_rng = rng.split(f"msg:{index}")
        t = 0.0
        attempts = 1
        while True:
            delay = model.next_delay(attempts, task_rng)
            if delay is None:
                break  # attempt budget exhausted: abandoned
            t += delay
            if t > horizon:
                break  # the retry never fires within the run
            attempts += 1
            phase = "passed" if t >= greylist_delay else "early"
            retry = session(family.helo_name, phase)
            if retry is BotAttemptOutcome.DELIVERED:
                per_family_delivered[family.name] += 1
                break
            if retry is not BotAttemptOutcome.DEFERRED:
                break

    return per_family_sent, per_family_delivered


def _run_internet_scale_columnar(
    num_domains: int,
    greylisting_rate: float,
    nolisting_rate: float,
    messages: int,
    greylist_delay: float,
    seed: int,
    horizon: float,
    chunk_domains: int = 100_000,
) -> InternetScaleResult:
    """The streaming engine behind ``engine="columnar"``.

    The object path's draws, replayed, give its results without its
    simulation.  The wave is replayed first (its streams are independent
    of the deployment stream), which pins down the handful of *targeted*
    domain indices; the deployment rolls are then streamed through in
    ``chunk_domains`` chunks (:func:`repro.scan.columnar.
    stream_deployment_rolls`, bulk draws) and only the targeted rolls are
    binned, with the object path's two comparisons.  Peak memory is
    O(chunk + messages), independent of ``num_domains`` — the property
    the memory-budget benchmark pins.
    """
    from ..scan.columnar import stream_deployment_rolls

    rng = RandomStream(seed, "internet-scale")
    wave = _replay_wave(rng, messages, num_domains)
    targeted = sorted({target for _, _, target in wave})

    deployment: Dict[int, str] = {}
    cursor = 0
    for start, rolls in stream_deployment_rolls(
        rng.split("deployments"), num_domains, chunk_domains
    ):
        end = start + len(rolls)
        while cursor < len(targeted) and targeted[cursor] < end:
            index = targeted[cursor]
            roll = rolls[index - start]
            if roll < nolisting_rate:
                deployment[index] = _NOLISTED
            elif roll < nolisting_rate + greylisting_rate:
                deployment[index] = _GREYLISTED
            else:
                deployment[index] = _PLAIN
            cursor += 1

    per_family_sent, per_family_delivered = _resolve_wave(
        wave, deployment.__getitem__, rng, greylist_delay, horizon
    )
    return _assemble_result(
        num_domains,
        greylisting_rate,
        nolisting_rate,
        per_family_sent,
        per_family_delivered,
    )


def sweep_deployment_rates(
    rates: List[tuple] = None,
    messages: int = 300,
    seed: int = 61,
    workers: int = 1,
    cache=None,
    num_domains: int = 60,
    engine: str = "columnar",
) -> List[InternetScaleResult]:
    """Block rate as deployment grows — the "what if adoption rose" curve.

    Each (greylisting, nolisting) grid point is an independent simulation,
    so the sweep fans them over ``workers`` processes; ``cache`` memoizes
    completed points across invocations.  ``engine="columnar"``, the
    default, streams the deployment column in fixed-size chunks, which is
    what pushes ``num_domains`` to internet scale (10M+) under a fixed
    memory budget; ``engine="object"`` runs every point on the oracle,
    with identical results.  Every grid point's rates are validated before
    any point runs.
    """
    from ..runner.pool import run_tasks
    from ..runner.shards import internet_scale_task

    if engine not in ("object", "columnar"):
        raise ValueError(f"unknown internet-scale engine {engine!r}")
    _check_num_domains(num_domains)
    if rates is None:
        rates = [(0.0, 0.0), (0.2, 0.05), (0.5, 0.1), (0.8, 0.2)]
    for grey, nolist in rates:
        _check_rates(grey, nolist)
    payloads = [
        {
            "num_domains": num_domains,
            "greylisting_rate": grey,
            "nolisting_rate": nolist,
            "messages": messages,
            "seed": seed,
            # Only present off the default, so columnar payloads keep the
            # key the object engine's payloads had while it was the default.
            **({"engine": engine} if engine != "columnar" else {}),
        }
        for (grey, nolist) in rates
    ]
    rows = run_tasks(
        internet_scale_task,
        payloads,
        workers=workers,
        cache=cache,
        experiment="internet-scale",
    )
    return [InternetScaleResult(**row) for row in rows]
