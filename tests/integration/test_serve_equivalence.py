"""Served-vs-simulated equivalence: the serving layer's core contract.

The same seeded bot traffic must produce *identical* greylist decisions
whether it flows through the simulator directly or over the wire through
the policy daemon: the full :class:`GreylistEvent` stream matches
element-for-element, and the resulting triplet-store state is
bit-identical — on every storage backend.  This is the proof that the
served and simulated paths share one policy core, not two
implementations that happen to agree on the verbs.
"""

import asyncio

import pytest

from repro.greylist.backends import create_backend
from repro.greylist.persistence import format_entry_line
from repro.greylist.policy import GreylistPolicy
from repro.greylist.store import TripletStore
from repro.serve.loadgen import capture_bot_trace, replay_trace
from repro.serve.plugins import DecisionCache, GreylistingPlugin, PluginChain
from repro.serve.server import PolicyServer, ReplayClock

THRESHOLD = 300.0
SEED = 23


def serve_trace(trace, backend_name, path=None):
    """Replay ``trace`` through a live daemon; return the served policy."""

    async def scenario():
        clock = ReplayClock()
        store = TripletStore(
            clock=clock, backend=create_backend(backend_name, path)
        )
        policy = GreylistPolicy(clock=clock, delay=THRESHOLD, store=store)
        chain = PluginChain(
            [GreylistingPlugin(policy, cache=DecisionCache())]
        )
        server = PolicyServer(chain, clock, flush_interval=0.2)
        host, port = await server.start()
        report = await replay_trace(host, port, trace.requests)
        # Snapshot before shutdown closes the backend.
        events = list(policy.events)
        snapshot = [format_entry_line(e) for e in policy.store.entries()]
        size, confirmed = policy.store.size, policy.store.confirmed
        await server.shutdown()
        return report, events, snapshot, size, confirmed

    return asyncio.run(scenario())


@pytest.fixture(scope="module")
def trace():
    return capture_bot_trace(threshold=THRESHOLD, num_messages=120, seed=SEED)


@pytest.mark.parametrize("backend_name", ["memory", "sqlite", "shm"])
def test_served_equals_simulated(trace, backend_name, tmp_path):
    path = (
        None
        if backend_name == "memory"
        else str(tmp_path / f"triplets.{backend_name}")
    )
    report, events, snapshot, size, confirmed = serve_trace(
        trace, backend_name, path
    )

    # Wire-level: every action verb matched the simulated ground truth.
    assert report.total == len(trace.requests)
    assert report.mismatches == []

    # Event-stream equivalence: the served policy logged the *same*
    # GreylistEvent sequence the simulator did — triplets, timestamps,
    # actions, all of it.
    assert events == trace.events

    # Store-snapshot equivalence: serialized triplet state is
    # bit-identical, and the aggregate counters agree.
    assert snapshot == trace.snapshot_lines
    assert (size, confirmed) == (trace.store_size, trace.store_confirmed)


def test_trace_is_deterministic_per_seed():
    a = capture_bot_trace(threshold=THRESHOLD, num_messages=40, seed=7)
    b = capture_bot_trace(threshold=THRESHOLD, num_messages=40, seed=7)
    assert a.events == b.events
    assert a.snapshot_lines == b.snapshot_lines


def test_distinct_seeds_produce_distinct_traffic():
    a = capture_bot_trace(threshold=THRESHOLD, num_messages=40, seed=7)
    b = capture_bot_trace(threshold=THRESHOLD, num_messages=40, seed=8)
    assert a.events != b.events
