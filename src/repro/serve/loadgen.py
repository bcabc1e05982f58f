"""Load generator: the synthetic internet's bot traffic, served live.

The serving daemon and the simulator must *provably* share one policy
core.  This module is the proof machinery:

* :func:`capture_bot_trace` runs a real simulated spam campaign (the
  same :class:`~repro.core.testbed.Testbed` + botnet machinery every
  experiment uses) against a greylisted victim and records the policy's
  decision stream — one :class:`TracedRequest` per RCPT-time decision,
  carrying the virtual timestamp, the triplet and the action the
  *simulated* path took.
* :func:`replay_trace` pushes exactly that request stream through a live
  daemon over the wire (sequentially, stamps in order) so a
  :class:`~repro.serve.server.ReplayClock` server reproduces the
  simulator's `GreylistEvent` stream and triplet-store state
  bit-for-bit — the equivalence suite and the CI smoke job both run
  this.
* :func:`run_load` is the throughput harness: it spreads a trace over N
  concurrent connections (tiling it with per-connection client
  subnets when N exceeds the trace), pre-renders each connection's
  pipelined burst, and measures decisions/sec plus sampled p50/p99
  latency against a running daemon.

Wall-clock reads here time a *live server over real sockets* — they are
measurement of the system under test, not simulation state, which is
why the two ``perf_counter`` sites carry CLK001 waivers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter  # repro: noqa CLK001 - loadgen times a live server, not the simulation
from typing import Dict, List, Sequence, Tuple

from ..botnet.campaign import SpamCampaign, make_recipient_list
from ..botnet.families import KELIHOS
from ..core.testbed import Defense, Testbed, TestbedConfig
from ..greylist.persistence import format_entry_line
from ..greylist.policy import GreylistAction, GreylistEvent
from ..sim.rng import RandomStream
from .client import PolicyClient, make_request_attrs
from .protocol import (
    ACTION_DEFER_IF_PERMIT,
    ACTION_DUNNO,
    format_request,
)

#: Actions the simulated policy maps to on the wire (verb only — defer
#: replies also carry the 450 text, compared separately where it matters).
_EVENT_VERBS = {
    GreylistAction.WHITELISTED: ACTION_DUNNO,
    GreylistAction.AUTO_WHITELISTED: ACTION_DUNNO,
    GreylistAction.PASSED: ACTION_DUNNO,
    GreylistAction.PASSED_KNOWN: ACTION_DUNNO,
    GreylistAction.GREYLISTED_NEW: ACTION_DEFER_IF_PERMIT,
    GreylistAction.GREYLISTED_EARLY: ACTION_DEFER_IF_PERMIT,
}


def expected_verb(event: GreylistEvent) -> str:
    """The wire action verb the served path must answer for ``event``."""
    return _EVENT_VERBS[event.action]


@dataclass(slots=True)
class TracedRequest:
    """One RCPT-time decision of the simulated run, replayable."""

    stamp: float
    client: str
    sender: str
    recipient: str
    expected: str  # action verb the simulated path produced

    def attrs(self) -> Dict[str, str]:
        return make_request_attrs(
            self.client, self.sender, self.recipient, stamp=self.stamp
        )


@dataclass
class TrafficTrace:
    """A captured campaign: requests + the simulated ground truth."""

    family: str
    threshold: float
    seed: int
    requests: List[TracedRequest]
    events: List[GreylistEvent]
    snapshot_lines: List[str]
    store_size: int
    store_confirmed: int


#: Kelihos bots sending the captured campaign, and how long it runs
#: (simulated seconds).
TRACE_BOTS = 4
TRACE_HORIZON = 400000.0


def capture_bot_trace(
    threshold: float = 300.0,
    num_messages: int = 200,
    seed: int = 23,
) -> TrafficTrace:
    """Run a simulated Kelihos campaign; capture its policy decisions.

    The testbed, bot family, scheduler and greylist policy are exactly
    the ones :func:`~repro.core.greylist_experiment.run_greylist_experiment`
    drives — the trace *is* simulated bot traffic, not a synthetic
    approximation of it.
    """
    family = KELIHOS
    testbed = Testbed(
        TestbedConfig(defense=Defense.GREYLISTING, greylist_delay=threshold)
    )
    domain = testbed.config.victim_domain
    rng = RandomStream(seed, f"serve-load:{family.name}:{threshold}")
    bots = [
        family.build_bot(
            internet=testbed.internet,
            resolver=testbed.resolver,
            scheduler=testbed.scheduler,
            source_address=testbed.allocate_bot_address(),
            rng=rng.split(f"bot:{i}"),
        )
        for i in range(TRACE_BOTS)
    ]
    campaign = SpamCampaign(
        sender=f"spam@{family.name.lower().replace('(', '').replace(')', '')}.example",
        recipients=make_recipient_list(domain, num_messages),
    )
    for index, job in enumerate(campaign.single_recipient_jobs()):
        bots[index % TRACE_BOTS].assign(job)
    testbed.run(horizon=TRACE_HORIZON)

    policy = testbed.greylist
    assert policy is not None
    requests = [
        TracedRequest(
            stamp=event.timestamp,
            client=str(event.triplet.client),
            sender=event.triplet.sender,
            recipient=event.triplet.recipient,
            expected=expected_verb(event),
        )
        for event in policy.events
    ]
    snapshot_lines = [
        format_entry_line(entry) for entry in policy.store.entries()
    ]
    trace = TrafficTrace(
        family=family.name,
        threshold=threshold,
        seed=seed,
        requests=requests,
        events=list(policy.events),
        snapshot_lines=snapshot_lines,
        store_size=policy.store.size,
        store_confirmed=policy.store.confirmed,
    )
    policy.store.close()
    return trace


# ----------------------------------------------------------------------
# Sequential replay (correctness: equivalence suite, CI smoke)
# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Outcome of a sequential trace replay against a live daemon."""

    total: int
    mismatches: List[Tuple[int, str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


async def replay_trace(
    host: str,
    port: int,
    requests: Sequence[TracedRequest],
    chunk: int = 256,
) -> ReplayReport:
    """Replay a trace in order over one connection; verify each action.

    Requests are pipelined ``chunk`` at a time (order preserved — one
    connection, in-order responses), so correctness replay is still
    thousands of decisions/sec.
    """
    client = await PolicyClient.connect(host, port)
    report = ReplayReport(total=len(requests))
    try:
        for base in range(0, len(requests), chunk):
            batch = requests[base : base + chunk]
            actions = await client.pipeline([r.attrs() for r in batch])
            for offset, (request, action) in enumerate(zip(batch, actions)):
                verb = action.split(" ", 1)[0]
                if verb != request.expected:
                    report.mismatches.append(
                        (base + offset, request.expected, verb)
                    )
    finally:
        await client.close()
    return report


# ----------------------------------------------------------------------
# Concurrent load (throughput: benchmarks, capacity tests)
# ----------------------------------------------------------------------
@dataclass
class LoadStats:
    """What one load run measured."""

    connections: int
    decisions: int
    elapsed: float
    decisions_per_sec: float
    latencies_ms: List[float]
    verbs: Dict[str, int]

    def percentile_ms(self, q: float) -> float:
        """Latency percentile (ms) over the sampled closed-loop probes."""
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    @property
    def latency_summary_ms(self) -> Dict[str, float]:
        """p50/p95/p99 of the sampled round trips, ready for reporting.

        The benchmarks publish these as ``extra_info`` next to
        ``decisions_per_sec`` so the regression gate can hold a tail
        ceiling, not just an aggregate-throughput floor.
        """
        return {
            "latency_p50_ms": self.percentile_ms(0.50),
            "latency_p95_ms": self.percentile_ms(0.95),
            "latency_p99_ms": self.percentile_ms(0.99),
        }


def tile_requests(
    requests: Sequence[TracedRequest],
    connections: int,
    per_connection: int,
) -> List[List[TracedRequest]]:
    """Spread a trace over ``connections`` independent request slices.

    Each connection replays a contiguous window of the trace with its
    client address rebased into a connection-private ``10.x.y.0/24``
    subnet — the serving equivalent of many bot subnets hammering one
    policy daemon at once.  Distinct subnets keep each connection's
    greylist phase progression intact regardless of interleaving.
    """
    if connections < 1 or per_connection < 1:
        raise ValueError("connections and per_connection must be >= 1")
    if not requests:
        raise ValueError("cannot tile an empty trace")
    tiled: List[List[TracedRequest]] = []
    size = len(requests)
    for conn in range(connections):
        prefix = f"10.{(conn >> 8) & 0xFF}.{conn & 0xFF}"
        slice_: List[TracedRequest] = []
        for i in range(per_connection):
            source = requests[(conn * per_connection + i) % size]
            slice_.append(
                TracedRequest(
                    stamp=source.stamp,
                    client=f"{prefix}.{int(source.client.rsplit('.', 1)[1])}",
                    sender=source.sender,
                    recipient=source.recipient,
                    expected=source.expected,
                )
            )
        tiled.append(slice_)
    return tiled


async def run_load(
    host: str,
    port: int,
    slices: Sequence[Sequence[TracedRequest]],
    sample_connections: int = 8,
) -> LoadStats:
    """Fire every slice concurrently; measure the fire phase only.

    Connection setup happens before the clock starts (we are measuring
    decision throughput, not TCP accept throughput).  Most connections
    run *open-loop*: their whole burst is pre-rendered to bytes and
    written at once, responses counted as they stream back.  The first
    ``sample_connections`` run *closed-loop*, one timed round trip per
    request — their latencies are the p50/p99 sample.
    """
    # Connect in bounded waves: 10k simultaneous SYNs overflow listen
    # queues (SYN cookies reset the excess); a wave of 512 stays inside
    # any sane backlog, and a couple of retries absorb the stragglers.
    async def connect_with_retry() -> PolicyClient:
        for attempt in (1, 2, 3):
            try:
                return await PolicyClient.connect(host, port)
            except (ConnectionError, OSError):
                if attempt == 3:
                    raise
                await asyncio.sleep(0.05 * attempt)
        raise AssertionError("unreachable")

    clients: List[PolicyClient] = []
    for base in range(0, len(slices), 512):
        wave = min(512, len(slices) - base)
        clients.extend(
            await asyncio.gather(*(connect_with_retry() for _ in range(wave)))
        )
    latencies_ms: List[float] = []
    verbs: Dict[str, int] = {}

    async def open_loop(client: PolicyClient, payload: bytes, count: int) -> None:
        # Responses are counted, not parsed — the closed-loop sample
        # carries the verb statistics; open-loop connections contribute
        # pure throughput.
        await client.send_counted(payload, count)

    async def closed_loop(client: PolicyClient, burst: Sequence[TracedRequest]) -> None:
        for request in burst:
            t0 = perf_counter()
            action = await client.request(request.attrs())
            latencies_ms.append((perf_counter() - t0) * 1000.0)
            verb = action.split(" ", 1)[0]
            verbs[verb] = verbs.get(verb, 0) + 1

    # Pre-render every open-loop burst *before* the clock starts: the
    # timed section measures the server answering decisions, not the
    # client formatting stanzas.
    tasks = []
    for index, (client, burst) in enumerate(zip(clients, slices)):
        if index < sample_connections:
            tasks.append(closed_loop(client, burst))
        else:
            payload = b"".join(format_request(r.attrs()) for r in burst)
            tasks.append(open_loop(client, payload, len(burst)))
    started = perf_counter()
    await asyncio.gather(*tasks)
    elapsed = perf_counter() - started
    await asyncio.gather(*(client.close() for client in clients))

    decisions = sum(len(burst) for burst in slices)
    return LoadStats(
        connections=len(slices),
        decisions=decisions,
        elapsed=elapsed,
        decisions_per_sec=decisions / elapsed if elapsed > 0 else 0.0,
        latencies_ms=latencies_ms,
        verbs=verbs,
    )
