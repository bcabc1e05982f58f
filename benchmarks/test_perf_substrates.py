"""Microbenchmarks of the hot substrate paths.

Unlike the experiment benches (which regenerate paper artefacts), these
measure the simulator's own throughput: event-loop churn, triplet-store
operations, CDF evaluation and population generation.  Useful for keeping
the full reproduction fast as it grows.
"""

from repro.analysis.cdf import EmpiricalCDF
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import TripletStore
from repro.greylist.triplet import Triplet
from repro.net.address import IPv4Address
from repro.scan.population import PopulationConfig, SyntheticInternet
from repro.sim.clock import Clock
from repro.sim.events import EventScheduler


def test_perf_event_scheduler(benchmark):
    """Throughput of schedule + fire for a self-rescheduling chain."""

    def run():
        scheduler = EventScheduler(Clock())
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10000:
                scheduler.schedule_in(1.0, tick)

        scheduler.schedule_at(0.0, tick)
        scheduler.run()
        return count[0]

    assert benchmark(run) == 10000


def test_perf_triplet_store(benchmark):
    """observe/lookup mix over a 5k-triplet database."""
    clock = Clock()
    triplets = [
        Triplet(IPv4Address(i), f"s{i % 97}@x.example", "r@y.example")
        for i in range(5000)
    ]

    def run():
        store = TripletStore(clock)
        for triplet in triplets:
            store.observe(triplet)
        hits = sum(1 for triplet in triplets if store.lookup(triplet))
        return hits

    assert benchmark(run) == 5000


def test_perf_greylist_policy(benchmark):
    """Full policy decisions (the per-RCPT hot path)."""
    clients = [IPv4Address(i) for i in range(1000)]

    def run():
        clock = Clock()
        policy = GreylistPolicy(clock=clock, delay=300.0)
        accepted = 0
        for client in clients:
            policy.on_rcpt_to(client, "s@x.example", "r@y.example")
        clock.advance_by(301.0)
        for client in clients:
            if policy.on_rcpt_to(client, "s@x.example", "r@y.example").accept:
                accepted += 1
        return accepted

    assert benchmark(run) == 1000


def test_perf_cdf_evaluation(benchmark):
    """CDF queries over a 10k sample (binary search per point)."""
    cdf = EmpiricalCDF.from_samples([float(i % 997) for i in range(10000)])
    xs = [float(x) for x in range(0, 1000, 7)]

    def run():
        return sum(cdf.at(x) for x in xs)

    result = benchmark(run)
    assert result > 0


def test_perf_population_generation(benchmark):
    """Synthetic-internet construction (the Figure 2 setup cost)."""

    def run():
        internet = SyntheticInternet(
            PopulationConfig(num_domains=2000), seed=7
        )
        return internet.num_domains

    assert benchmark(run) == 2000
