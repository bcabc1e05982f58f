"""Simulator workloads: ``repro.core`` experiment ops in a fresh process.

Each set-up launches ``simworker.py`` and times it from launch to its
``ready`` line (interpreter start, imports and warm-up ops).  The first
``SETUPS - 1`` workers are told to quit; the last one runs the timed
ops.  A sim op is one seed's artefact run, timed closed-loop, so
``max_ops_per_s`` is the completion rate and ``cpu_us_per_op`` the
worker's CPU per op.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import hostspeed
import procinfo
import spans
import stats

#: Worker set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5

#: The worker pins each op to the fastest of these (see simworker.timed).
CPUS = sorted(os.sched_getaffinity(0))

READY_TIMEOUT_S = 60.0


def _launch(
    root: str, argv: List[str], probe: hostspeed.Probe
) -> Tuple[subprocess.Popen, float, float]:
    """Start a worker; (process, launch-to-ready seconds, CPU slowness).

    The slowness is the fastest CPU's, read before and after: the
    scheduler puts a waking process on an idle CPU, and both are idle.
    """
    before = probe.fastest(CPUS)[1]
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "perfbench", "simworker.py"), *argv,
         "--probe-fds", ",".join(map(str, probe.child_fds))],
        cwd=root, env=procinfo.child_env(root), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        pass_fds=probe.child_fds,
    )
    ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline().decode().strip() if ready else ""
    setup_s = time.perf_counter() - started
    if line != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"sim worker did not get ready: {line!r}")
    return proc, setup_s, (before + probe.fastest(CPUS)[1]) / 2


def run(workload: str, seed: int, seconds: float, trace: bool, root: str, out_dir: str) -> Dict:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    trace_out = os.path.join(out_dir, f"{workload}-{seed}-{os.getpid()}.spans")
    if trace:
        argv += ["--trace-out", trace_out]
    setups: List[Tuple[float, float]] = []  # (wall s, slowness)
    with hostspeed.Probe() as probe:
        for k in range(1 if trace else SETUPS):
            proc, setup_s, slow = _launch(root, argv, probe)
            setups.append((setup_s, slow))
            if k < (0 if trace else SETUPS - 1):
                proc.communicate(b"quit\n", timeout=30)
        try:
            out, _ = proc.communicate(b"go\n", timeout=seconds + 120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"sim worker exited {proc.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    for problem in report["problems"]:
        print(f"{workload}: {problem}")
    result = {"correct": report["failed"] == 0, "attempted": report["ops"],
              "failed": report["failed"]}
    if trace:
        table = spans.SpanTable.load(trace_out)
        os.remove(trace_out)
        return {**result, "metrics": sim_layers(table, report)}

    rows = report["plain"]
    raw = sorted(wall * 1e3 for wall, _, _ in rows)
    durations = sorted(wall * 1e3 / slow for wall, _, slow in rows)
    setup = sorted(wall / slow for wall, slow in setups)
    print(f"{workload} op latency, raw: {stats.format_tail(stats.tail_summary(raw))}")
    print(f"{workload} op latency at nominal speed: "
          f"{stats.format_tail(stats.tail_summary(durations))}")
    print(f"{workload} CPU slowness per op: median "
          f"{stats.percentile(sorted(r[2] for r in rows), 50.0):.3f}")
    print(f"{workload} set-ups (wall s, slowness): "
          + ", ".join(f"{w:.3f} x{s:.2f}" for w, s in setups))
    return {
        **result,
        "metrics": {
            "p50_ms": (stats.percentile(durations, 50.0), "ms"),
            "max_ops_per_s": (len(durations) / (sum(durations) / 1e3), "1/s"),
            "cpu_us_per_op": (sum(cpu / slow for _, cpu, slow in rows) / len(rows) * 1e6, "us"),
            "peak_rss_mib": (report["peak_rss_mib"], "MiB"),
            "setup_s": (setup[len(setup) // 2], "s"),
        },
    }


def sim_layers(table: spans.SpanTable, report: Dict) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures from the traced ops' spans."""
    totals = spans.aggregate(table)
    ops = max(len(report["traced"]), 1)

    def count(name: str) -> float:
        return totals[name].count / ops if name in totals else 0.0

    def self_ms(name: str) -> float:
        return totals[name].self_ns / ops / 1e6 if name in totals else 0.0

    def inclusive_ms(*names: str) -> float:
        return sum(totals[n].inclusive_ns for n in names if n in totals) / ops / 1e6

    def mean_us(name: str) -> float:
        entry = totals.get(name)
        return entry.inclusive_ns / entry.count / 1e3 if entry and entry.count else 0.0

    decisions = totals.get("greylist.policy")
    traced = sorted(wall / slow for wall, _, slow in report["traced"])
    plain = sorted(wall / slow for wall, _, slow in report["plain"])
    metrics = {
        "sim.events.events_per_op": (count("sim.events.callback"), "count"),
        "sim.events.self_ms_per_op": (self_ms("sim.events.run"), "ms"),
        "net.connects_per_op": (count("net.connect"), "count"),
        "smtp.sessions_per_op": (count("smtp.session_factory"), "count"),
        "smtp.session_ms_per_op": (
            inclusive_ms("smtp.session_factory", "smtp.session"), "ms"),
        "dns.resolves_per_op": (count("dns.resolve"), "count"),
        "dns.resolve_us_per_op": (mean_us("dns.resolve"), "us"),
        "greylist.policy.decisions_per_op": (count("greylist.policy"), "count"),
        "greylist.policy.self_us_per_op": (
            decisions.self_ns / decisions.count / 1e3
            if decisions and decisions.count else 0.0, "us"),
        "greylist.store.observe_us_per_op": (mean_us("greylist.store.observe"), "us"),
        "maillog.deployment_ms_per_op": (inclusive_ms("maillog.deployment"), "ms"),
        "maillog.roundtrip_ms_per_op": (inclusive_ms("maillog.roundtrip"), "ms"),
        "scan.population.plan_builds_per_op": (count("scan.population.plan"), "count"),
        "scan.population.plan_ms_per_op": (inclusive_ms("scan.population.plan"), "ms"),
        "scan.columnar.chunk_ms_per_op": (inclusive_ms("scan.columnar.chunk"), "ms"),
        "scan.batch.self_ms_per_op": (self_ms("scan.batch"), "ms"),
        "scan.detect.classify_calls_per_op": (count("scan.detect.classify"), "count"),
        "runner.pool.tasks_per_op": (count("runner.shard"), "count"),
        "runner.pool.self_ms_per_op": (self_ms("runner.pool"), "ms"),
        "core.adoption.self_ms_per_op": (self_ms("core.adoption"), "ms"),
        "trace.overhead_pct": (
            (stats.percentile(traced, 50.0) / stats.percentile(plain, 50.0) - 1) * 100,
            "%"),
    }
    windows = report["op_windows"]
    lo, hi = (windows[0][0], windows[-1][1]) if windows else (0, 0)
    inside = [e for e in table.events if any(a <= e[1] < b for a, b in windows)]
    metrics.update(spans.gc_metrics(inside, (lo, hi + 1)))
    return metrics
