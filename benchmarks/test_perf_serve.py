"""Throughput and latency of the live policy daemon under bot load.

The daemon runs as a real subprocess (``python -m repro serve``) — its
own event loop, its own core budget, SIGTERM'd at the end like the CI
smoke job does — while this process replays tiled bot-campaign traffic
against it with :func:`repro.serve.loadgen.run_load`:

* **Memory backend** at 100 / 1,000 / 10,000 concurrent connections —
  the scaling curve, with a hard floor of 20,000 decisions/sec at the
  10k point (the tentpole acceptance number; measured headroom on the
  1-core CI box is ~30k).
* **SQLite (WAL) backend** at 1,000 connections — the durable-serving
  number behind docs/PERFORMANCE.md's serving section.
* **Prefork sweep** (shm backend, 1/2/4/8 workers) at 1,000
  connections — the multi-core scaling table in docs/PERFORMANCE.md.
  On a box with >= 4 cores the 4-worker point must clear 2.5x the
  single-worker rate (the tentpole acceptance number); every point
  must keep p99 under a melt-down ceiling regardless of core count.

``decisions_per_sec`` and sampled ``p99_ms``/``latency_p*_ms`` ride
along as extra_info (the throughput keys feed the smoke-bench
regression gate's floors);
the pytest-benchmark timing (which additionally includes connection
setup) is what the smoke-bench regression gate compares.  The traffic is
the same captured campaign trace the equivalence suite replays — the
served path is exercised on *simulator* traffic, not a synthetic
request generator.
"""

import asyncio
import math
import os
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.serve.daemon import raise_fd_limit
from repro.serve.loadgen import capture_bot_trace, run_load, tile_requests

from _util import emit

#: Hard floor: decisions/sec on the memory backend at 10k connections.
DECISIONS_FLOOR_10K = 20_000

#: Prefork scaling floor: 4 shm workers vs 1, when the box has the cores.
WORKERS_SCALING_FLOOR = 2.5

#: Tail-latency melt-down ceiling for every prefork sweep point.  This
#: is deliberately loose — it catches a lock convoy or an accept-queue
#: stall (tens of seconds), not ordinary scheduling jitter on a busy
#: 1-core box where p99 at 1k connections already runs ~1s.
WORKERS_P99_CEILING_MS = 10_000.0

#: Single/4-worker rates observed by the sweep, for the scaling floor.
_shm_sweep_rates = {}

#: Campaign trace the load is tiled from (same shape as the CI smoke).
TRACE_MESSAGES = 200
TRACE_SEED = 23


@pytest.fixture(scope="module")
def trace():
    raise_fd_limit()  # the client side holds one fd per connection
    return capture_bot_trace(num_messages=TRACE_MESSAGES, seed=TRACE_SEED)


@contextmanager
def policy_daemon(backend, workers=1):
    """A live ``repro serve`` subprocess on an ephemeral port.

    Durable backends run volatile (no ``--store-path``), matching the
    store microbenches: identical code paths, no container I/O noise.
    ``workers > 1`` boots the prefork fleet (shm backend only).
    """
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--workers",
            str(workers),
            "--store-backend",
            backend,
            "serve",
            "--clock",
            "replay",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("listening on "), line
        host, _, port = line.rpartition(":")
        host = host[len("listening on ") :]
        yield host, int(port)
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    assert proc.returncode == 0, "daemon did not exit cleanly"


def _fire(host, port, trace, connections, total_requests):
    per_connection = max(1, math.ceil(total_requests / connections))
    slices = tile_requests(trace.requests, connections, per_connection)
    return asyncio.run(run_load(host, port, slices))


def _report(benchmark, label, stats):
    benchmark.extra_info["connections"] = stats.connections
    benchmark.extra_info["decisions_per_sec"] = round(stats.decisions_per_sec)
    benchmark.extra_info["p99_ms"] = round(stats.percentile_ms(0.99), 3)
    for key, value in stats.latency_summary_ms.items():
        benchmark.extra_info[key] = round(value, 3)
    emit(
        label,
        f"{stats.decisions:,} decisions over {stats.connections:,} "
        f"connections: {stats.decisions_per_sec:,.0f} decisions/sec, "
        f"p50 {stats.percentile_ms(0.50):.2f}ms, "
        f"p99 {stats.percentile_ms(0.99):.2f}ms",
    )


@pytest.mark.parametrize("connections", [100, 1_000, 10_000])
def test_perf_serve_memory(benchmark, trace, connections):
    """Decision throughput scaling on the memory backend."""
    # 20 requests per connection: enough pipelined work that the fire
    # window measures decision throughput, not per-connection setup.
    total = connections * 20 if connections == 10_000 else 20_000
    with policy_daemon("memory") as (host, port):
        stats = benchmark.pedantic(
            _fire,
            args=(host, port, trace, connections, total),
            rounds=1,
            iterations=1,
        )
    _report(benchmark, f"Policy serving (memory, {connections} conns)", stats)
    assert stats.decisions >= total
    assert not stats.verbs.keys() - {"DUNNO", "DEFER_IF_PERMIT"}
    if connections == 10_000:
        best = stats.decisions_per_sec
        # The box is shared: a background burst during the 10-second
        # fire window can shave 30%+ off the observed rate.  The floor
        # is a capacity claim, so retry the load (untimed) before
        # declaring the daemon under-provisioned.
        for _ in range(2):
            if best >= DECISIONS_FLOOR_10K:
                break
            with policy_daemon("memory") as (host, port):
                retry = _fire(host, port, trace, connections, total)
            best = max(best, retry.decisions_per_sec)
        assert best >= DECISIONS_FLOOR_10K, (
            f"{best:,.0f} decisions/sec at 10k connections is below "
            f"the {DECISIONS_FLOOR_10K:,} floor"
        )


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_perf_serve_workers(benchmark, trace, workers):
    """Prefork scaling sweep: shm backend, 1k connections per point.

    Every point publishes its rate and latency percentiles; the
    4-worker point additionally enforces the >= 2.5x scaling floor
    against the single-worker rate — but only on a box with at least
    4 cores (the dev container has 1; CI has 4).
    """
    total = 20_000
    with policy_daemon("shm", workers=workers) as (host, port):
        stats = benchmark.pedantic(
            _fire,
            args=(host, port, trace, 1_000, total),
            rounds=1,
            iterations=1,
        )
    benchmark.extra_info["workers"] = workers
    _report(benchmark, f"Policy serving (shm, {workers} workers)", stats)
    assert stats.decisions >= total
    assert not stats.verbs.keys() - {"DUNNO", "DEFER_IF_PERMIT"}
    assert stats.percentile_ms(0.99) <= WORKERS_P99_CEILING_MS, (
        f"p99 {stats.percentile_ms(0.99):,.0f}ms with {workers} workers "
        f"breaches the {WORKERS_P99_CEILING_MS:,.0f}ms melt-down ceiling"
    )
    _shm_sweep_rates[workers] = stats.decisions_per_sec
    if workers == 4 and (os.cpu_count() or 1) >= 4:
        single = _shm_sweep_rates.get(1)
        if single is None:
            pytest.skip("single-worker point did not run; no scaling base")
        best = stats.decisions_per_sec
        # Same shared-box caveat as the 10k floor: retry untimed before
        # declaring the fleet under-scaled.
        for _ in range(2):
            if best >= WORKERS_SCALING_FLOOR * single:
                break
            with policy_daemon("shm", workers=4) as (host, port):
                retry = _fire(host, port, trace, 1_000, total)
            best = max(best, retry.decisions_per_sec)
        assert best >= WORKERS_SCALING_FLOOR * single, (
            f"4 workers reached {best:,.0f} decisions/sec — below "
            f"{WORKERS_SCALING_FLOOR}x the single-worker "
            f"{single:,.0f}/sec"
        )


@pytest.mark.parametrize("backend", ["sqlite"])
def test_perf_serve_durable(benchmark, trace, backend):
    """Durable-backend serving throughput at 1k connections."""
    with policy_daemon(backend) as (host, port):
        stats = benchmark.pedantic(
            _fire,
            args=(host, port, trace, 1_000, 20_000),
            rounds=1,
            iterations=1,
        )
    _report(benchmark, f"Policy serving ({backend}, 1000 conns)", stats)
    assert stats.decisions >= 20_000
