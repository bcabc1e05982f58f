"""Served workloads: a real policy daemon driven by the open-loop generator.

The daemon is ``python -m repro serve --clock replay`` (memory backend,
one worker) in its own process; the traced run swaps in
``traced_daemon.py``, which builds the same chain from public classes
with timing spans around each layer.  The generator (this process)
holds one pipelined connection and sends pre-rendered stanzas on a
fixed schedule.

Run shape (untraced): ``SETUPS`` daemons one after another, each
launched and preloaded (its set-up), then given an equal share of a
fixed-rate phase of ``FIXED_SHARE`` of ``--seconds`` and of
``SATURATE_REQUESTS`` requests saturating.  Every figure is a median
over the bursts of all of them: with all timed work on one daemon, the
figures rose and fell together from run to run, as if each process ran
at its own speed.  Traced: the fixed-rate phase against
the plain daemon, then again against the traced daemon, so
``trace.overhead_pct`` compares like with like inside one run.
"""

from __future__ import annotations

import os
import random
import select
import signal
import socket
import subprocess
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import hostspeed
import openloop
import procinfo
import spans
import stats
from openloop import OpenLoop, Phase, SocketTransport

#: Confirmed triplets ``serve-known`` preloads (fits the daemon's
#: 65,536-entry client-parse memo and decision LRU).
KNOWN_TRIPLETS = 20_000

#: First sightings ``serve-newflood`` preloads: past the daemon's
#: 65,536-entry client-parse memo and decision LRU, so the timed phase
#: starts with both overflowed and a store of this many triplets.
NEWFLOOD_FILL = 70_000

#: Fixed offered rate (requests/s) per workload, far below the saturated
#: rate, and the same for every later change.
FIXED_RATE = {"serve-known": 3000.0, "serve-newflood": 3000.0}

#: Share of ``--seconds`` spent at the fixed rate; saturating takes
#: about the rest.
FIXED_SHARE = 0.75

#: Both phases run as bursts, each on the CPU then fastest and divided
#: by that CPU's slowness (see ``_place`` and ``hostspeed.py``): bursts
#: of ``BURST_S`` at the fixed rate, and ``SATURATE_REQUESTS`` in bursts
#: of ``SATURATE_BURST`` all due at once.
BURST_S = 0.25
SATURATE_REQUESTS = 90_000
SATURATE_BURST = 10_000

#: Daemons per untraced run; ``setup_s`` is the median of their set-ups.
SETUPS = 3

#: The greylisting delay the daemon runs with, and virtual times.
DELAY_S = 300.0
T_FIRST = 1_000_000.0
T_TIMED = T_FIRST + DELAY_S + 100.0

#: With two or more CPUs the generator and the daemon each get their
#: own, so neither waits for the other's time slice (the generator spins).
CPUS = sorted(os.sched_getaffinity(0))

START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 30.0


def _dunno() -> bytes:
    from repro.serve.protocol import ACTION_DUNNO, format_response

    return format_response(ACTION_DUNNO)


def _deferral() -> bytes:
    from repro.serve.protocol import ACTION_DEFER_IF_PERMIT, format_response
    from repro.smtp.replies import greylisted

    reply = greylisted(DELAY_S)
    return format_response(f"{ACTION_DEFER_IF_PERMIT} {reply.code} {reply.text}")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
Triplet = Tuple[str, str, str]


def _address(value: int) -> str:
    return f"10.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


class Traffic:
    """Seeded triplets and stanza rendering for one serve workload."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        rng = self.rng
        if workload == "serve-known":
            clients = rng.sample(range(1 << 24), KNOWN_TRIPLETS)
            self.known: List[Triplet] = [
                self._triplet(value) for value in clients
            ]
        else:
            self._next = rng.randrange(1 << 24)
            self._stride = rng.randrange(1 << 23) * 2 + 1
        self._serial = 0

    def _triplet(self, client: int) -> Triplet:
        rng = self.rng
        domain = rng.randrange(5000)
        return (
            _address(client),
            f"user{rng.randrange(100000)}@sender{domain}.example",
            f"rcpt{rng.randrange(50000)}@mx.example",
        )

    def _fresh(self) -> Triplet:
        # Distinct clients: an odd stride walks all of 10.0.0.0/8.
        client = self._next
        self._next = (client + self._stride) & 0xFFFFFF
        return self._triplet(client)

    def render(self, triplet: Triplet, stamp: float) -> bytes:
        from repro.serve.protocol import format_request

        self._serial += 1
        client, sender, recipient = triplet
        return format_request(
            {
                "request": "smtpd_access_policy",
                "protocol_state": "RCPT",
                "protocol_name": "ESMTP",
                "client_address": client,
                "client_name": "unknown",
                "reverse_client_name": "unknown",
                "helo_name": f"mta.{sender.rsplit('@', 1)[1]}",
                "sender": sender,
                "recipient": recipient,
                "recipient_count": "0",
                "queue_id": "",
                "instance": f"{self._serial:x}.perfbench",
                "size": "0",
                "stamp": f"{stamp:.3f}",
            }
        )

    def timed(self, count: int, first: int) -> List[bytes]:
        """``count`` timed stanzas; request numbers start at ``first``."""
        out = []
        for k in range(first, first + count):
            stamp = T_TIMED + k / 1000.0
            if self.workload == "serve-known":
                triplet = self.known[self.rng.randrange(KNOWN_TRIPLETS)]
            else:
                triplet = self._fresh()
            out.append(self.render(triplet, stamp))
        return out

    def expected(self) -> bytes:
        return _dunno() if self.workload == "serve-known" else _deferral()

    def preload(self) -> List[Tuple[List[bytes], bytes]]:
        """Set-up batches, the same for every set-up of a run.

        ``serve-known``: every triplet's first sighting, then its retry.
        ``serve-newflood``: ``NEWFLOOD_FILL`` first sightings from new
        clients; the timed requests' clients come after these.
        """
        if not hasattr(self, "_preload"):
            if self.workload == "serve-known":
                self._preload = [
                    ([self.render(t, stamp) for t in self.known], expected)
                    for stamp, expected in (
                        (T_FIRST, _deferral()), (T_FIRST + DELAY_S + 1, _dunno())
                    )
                ]
            else:
                fill = [self.render(self._fresh(), T_FIRST) for _ in range(NEWFLOOD_FILL)]
                self._preload = [(fill, _deferral())]
        return self._preload


# ----------------------------------------------------------------------
# The daemon process
# ----------------------------------------------------------------------
class Daemon:
    """One policy daemon subprocess and the connection to it."""

    def __init__(self, root: str, cpu: int, trace_out: Optional[str] = None) -> None:
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve", "--clock", "replay",
                    "--port", "0", "--delay", str(DELAY_S)]
        else:
            argv = [sys.executable, os.path.join(root, "perfbench", "traced_daemon.py"),
                    "--delay", str(DELAY_S), "--trace-out", trace_out]
        self.trace_out = trace_out
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=procinfo.child_env(root), stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
        )
        #: The CPU the daemon is pinned to (see ``_place``).
        self.cpu = cpu
        if len(CPUS) > 1:
            os.sched_setaffinity(self.proc.pid, {cpu})
        line = self._readline(START_TIMEOUT_S)
        if not line.startswith("listening on "):
            self.kill()
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        host, port = line[len("listening on "):].rsplit(":", 1)
        self.listen_s = time.perf_counter() - started
        self.sock = socket.create_connection((host, int(port)))
        self.loop = OpenLoop(SocketTransport(self.sock))
        self.sent = 0

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            return ""
        return self.proc.stdout.readline().decode(errors="replace").strip()

    def run(self, payloads: List[bytes], due: List[float], expected: bytes) -> Phase:
        self.sent += len(payloads)
        return self.loop.run(payloads, due, expected)

    def mark(self) -> None:
        """Ask the traced daemon to snapshot its gauges (window edge)."""
        self.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.05)

    def stop(self) -> Tuple[int, Optional[int]]:
        """SIGTERM, wait; returns (exit code, decisions the daemon served)."""
        self.sock.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -1, None
        served = None
        for line in out.decode(errors="replace").splitlines():
            if line.startswith("served "):
                served = int(line.split()[1])
        return self.proc.returncode, served

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _slowness(probe: hostspeed.Probe, daemon: Daemon) -> float:
    """The slowness of the daemon's CPU, read while the daemon is idle."""
    return probe.slowness({daemon.cpu})


def _place(daemon: Daemon, probe: hostspeed.Probe) -> float:
    """Put the daemon on whichever CPU runs fastest now; that CPU's slowness.

    Each CPU's speed swings on its own from one half-second to the next,
    so this halves the typical slowdown, as for the sim ops.  The
    generator moves to the other CPU.  Both processes are idle here.
    """
    if len(CPUS) < 2:
        return _slowness(probe, daemon)
    cpu, slowness = probe.fastest(CPUS)
    if cpu != daemon.cpu:
        os.sched_setaffinity(daemon.proc.pid, {cpu})
        os.sched_setaffinity(0, set(CPUS) - {cpu})
        daemon.cpu = cpu
    return slowness


def _start(
    root: str, traffic: Traffic, probe: hostspeed.Probe, trace_out: Optional[str] = None
) -> Tuple[Daemon, float, int]:
    """Launch and preload a daemon on the CPU running fastest now:
    (daemon, nominal set-up s, failures)."""
    batches = traffic.preload()
    cpu, before = probe.fastest(CPUS)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, set(CPUS) - {cpu})
    started = time.perf_counter()
    daemon = Daemon(root, cpu, trace_out)
    failed = 0
    try:
        for payloads, expected in batches:
            now = time.perf_counter()
            failed += daemon.run(payloads, [now] * len(payloads), expected).failed
    except BaseException:
        daemon.kill()
        raise
    wall = time.perf_counter() - started
    return daemon, wall / ((before + _slowness(probe, daemon)) / 2), failed


@dataclass
class Burst:
    """One burst of requests, the daemon's CPU time over it, and the
    slowness of the daemon's CPU (mean of readings before and after)."""

    phase: Phase
    cpu_ns: int
    slowness: float

    @property
    def wall_s(self) -> float:
        phase = self.phase
        return phase.done[phase.answered - 1] - phase.due[0] if phase.answered else 0.0


@dataclass
class Timed:
    """A phase run as bursts.  Each figure is the median over bursts of
    that burst's figure at nominal CPU speed (see ``hostspeed.py``)."""

    bursts: List[Burst]

    @property
    def attempted(self) -> int:
        return sum(b.phase.attempted for b in self.bursts)

    @property
    def failed(self) -> int:
        return sum(b.phase.failed for b in self.bursts)

    @property
    def answered(self) -> int:
        return sum(b.phase.answered for b in self.bursts)

    def latencies_ms(self) -> List[float]:
        """Every latency as measured, ascending."""
        return sorted(v for b in self.bursts for v in b.phase.latencies_ms())

    def lateness_us(self) -> List[float]:
        return sorted(v for b in self.bursts for v in b.phase.lateness_us())

    def slowness(self) -> float:
        return statistics.median(b.slowness for b in self.bursts)

    def p50_ms(self) -> float:
        return statistics.median(
            stats.percentile(sorted(b.phase.latencies_ms()), 50.0) / b.slowness
            for b in self.bursts
        )

    def cpu_us_per_op(self) -> float:
        return statistics.median(
            b.cpu_ns / b.phase.answered / 1e3 / b.slowness for b in self.bursts
        )

    def ops_per_s(self) -> float:
        return statistics.median(
            b.phase.answered / b.wall_s * b.slowness for b in self.bursts
        )

    def busy_share(self) -> float:
        """Daemon CPU time over wall time, as measured."""
        return sum(b.cpu_ns for b in self.bursts) / 1e9 / sum(b.wall_s for b in self.bursts)


def _bursts(
    daemon: Daemon, traffic: Traffic, probe: hostspeed.Probe, count: int, size: int,
    rate: Optional[float] = None,
) -> Timed:
    """``count`` requests in bursts of ``size``, at ``rate`` per second
    or, without a rate, all of a burst due at once (saturating)."""
    expected = traffic.expected()
    bursts: List[Burst] = []
    for first in range(0, count, size):
        n = min(size, count - first)
        payloads = traffic.timed(n, daemon.sent)
        before = _place(daemon, probe)
        cpu0 = procinfo.cpu_ns(daemon.proc.pid)
        start = time.perf_counter() + 0.001
        due = [start] * n if rate is None else openloop.schedule(start, rate, n)
        phase = daemon.run(payloads, due, expected)
        spent = procinfo.cpu_ns(daemon.proc.pid) - cpu0
        after = _slowness(probe, daemon)
        bursts.append(Burst(phase, spent, (before + after) / 2))
    return Timed(bursts)


def _fixed_phase(
    daemon: Daemon, traffic: Traffic, probe: hostspeed.Probe, rate: float, seconds: float
) -> Timed:
    """``seconds`` at ``rate`` requests per second, in bursts of ``BURST_S``."""
    return _bursts(daemon, traffic, probe, int(rate * seconds), int(rate * BURST_S), rate)


def _finish(daemon: Daemon) -> int:
    """Stop the daemon; failures if it exited badly or miscounted."""
    sent = daemon.sent
    code, served = daemon.stop()
    if code != 0 or served != sent:
        print(f"daemon exit {code}, served {served} of {sent} sent", file=sys.stderr)
        return max(1, sent - (served or 0))
    return 0


def _report(label: str, timed: Timed) -> None:
    print(f"{label}: {len(timed.bursts)} bursts, daemon CPU slowness median "
          f"{timed.slowness():.3f}")
    print(f"{label} latency, raw: {stats.format_tail(stats.tail_summary(timed.latencies_ms()))}")
    print(f"{label} generator lateness: "
          f"{stats.format_tail(stats.tail_summary(timed.lateness_us()), 'us')}")


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> Dict:
    with hostspeed.Probe() as probe:
        if trace:
            return _run_traced(workload, seed, seconds, root, out_dir, probe)
        return _run_timed(workload, seed, seconds, root, probe)


def _run_timed(workload: str, seed: int, seconds: float, root: str, probe) -> Dict:
    rate = FIXED_RATE[workload]
    traffic = Traffic(workload, seed)
    setups: List[float] = []
    peaks: List[float] = []
    fixed, saturated = Timed([]), Timed([])
    failed = 0
    for _ in range(SETUPS):
        daemon, setup_s, preload_failed = _start(root, traffic, probe)
        setups.append(setup_s)
        failed += preload_failed
        try:
            part = _fixed_phase(daemon, traffic, probe, rate, seconds * FIXED_SHARE / SETUPS)
            fixed.bursts += part.bursts
            # Before saturating, so it covers the fixed phase's requests alone.
            peaks.append(procinfo.peak_rss_mib(daemon.proc.pid))
            part = _bursts(daemon, traffic, probe, SATURATE_REQUESTS // SETUPS, SATURATE_BURST)
            saturated.bursts += part.bursts
        except BaseException:
            daemon.kill()
            raise
        failed += _finish(daemon)
    failed += fixed.failed + saturated.failed

    _report(f"{workload} at {rate:.0f}/s", fixed)
    _report(f"{workload} saturated", saturated)
    print(f"{workload} set-ups at nominal speed: " + ", ".join(f"{s:.3f} s" for s in setups))
    return {
        "correct": failed == 0,
        "attempted": fixed.attempted + saturated.attempted,
        "failed": failed,
        "metrics": {
            "p50_ms": (fixed.p50_ms(), "ms"),
            "max_ops_per_s": (saturated.ops_per_s(), "1/s"),
            "cpu_us_per_op": (fixed.cpu_us_per_op(), "us"),
            "peak_rss_mib": (statistics.median(peaks), "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        },
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _run_traced(
    workload: str, seed: int, seconds: float, root: str, out_dir: str, probe
) -> Dict:
    rate = FIXED_RATE[workload]
    failed = 0
    traffic = Traffic(workload, seed)
    daemon, _, preload_failed = _start(root, traffic, probe)
    try:
        plain = _fixed_phase(daemon, traffic, probe, rate, seconds * FIXED_SHARE)
    finally:
        failed += _finish(daemon) + preload_failed
    failed += plain.failed
    _report(f"{workload} untraced at {rate:.0f}/s", plain)

    trace_out = os.path.join(out_dir, f"{workload}-{seed}.spans")
    traffic = Traffic(workload, seed)  # the same requests again
    daemon, _, preload_failed = _start(root, traffic, probe, trace_out)
    try:
        daemon.mark()
        traced = _fixed_phase(daemon, traffic, probe, rate, seconds * FIXED_SHARE)
        daemon.mark()
    finally:
        failed += _finish(daemon) + preload_failed
    failed += traced.failed
    _report(f"{workload} traced at {rate:.0f}/s", traced)

    table = spans.SpanTable.load(trace_out)
    metrics = serve_layers(table, traced.answered)
    lateness = plain.lateness_us()
    metrics.update(
        {
            "loadgen.lateness_p50_us": (stats.percentile(lateness, 50.0), "us"),
            "loadgen.lateness_max_ms": (lateness[-1] / 1e3, "ms"),
            "daemon.busy_share": (plain.busy_share(), "ratio"),
            "trace.overhead_pct": ((traced.p50_ms() / plain.p50_ms() - 1.0) * 100.0, "%"),
        }
    )
    return {
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def serve_layers(table: spans.SpanTable, ops: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures from the traced daemon, inside its two marks."""
    (t0, before), (t1, after) = table.marks[0], table.marks[-1]
    totals = spans.aggregate(table, (t0, t1))

    def self_us(*names: str) -> float:
        return sum(totals[n].self_ns for n in names if n in totals) / max(ops, 1) / 1e3

    def count(name: str) -> int:
        return totals[name].count if name in totals else 0

    decide = count("serve.plugins.chain")
    hits = after["cache_hits"] - before["cache_hits"]
    lookups = hits + after["cache_misses"] - before["cache_misses"]
    observe = totals.get("greylist.store.observe")
    metrics: Dict[str, Tuple[float, str]] = {
        "serve.server.self_us_per_op": (self_us("serve.server"), "us"),
        "serve.server.ops_per_read": (decide / max(count("serve.protocol.feed"), 1), "ratio"),
        "serve.protocol.parse_us_per_op": (self_us("serve.protocol.feed"), "us"),
        "serve.plugins.self_us_per_op": (
            self_us("serve.plugins.chain", "serve.plugins.cache"), "us"),
        "serve.plugins.cache_hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
        "greylist.policy.self_us_per_op": (self_us("greylist.policy"), "us"),
        "greylist.policy.decisions_per_op": (count("greylist.policy") / max(ops, 1), "count"),
        "greylist.policy.events_retained": (after["events"], "count"),
        "greylist.store.observe_us_per_op": (
            observe.inclusive_ns / observe.count / 1e3 if observe and observe.count else 0.0,
            "us"),
        "greylist.store.entries": (after["entries"], "count"),
    }
    metrics.update(spans.gc_metrics(table.events, (t0, t1)))
    return metrics
