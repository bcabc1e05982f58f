"""Every metric the benchmark prints, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
tests check the two agree.  A traced run prints every per-layer metric;
a layer the workload never enters reads 0 (see NOTES.md for which
layers run on which workload).
"""

from __future__ import annotations

from typing import Dict, Tuple

END_TO_END: Dict[str, str] = {
    "p50_ms": "ms",
    "max_ops_per_s": "1/s",
    "cpu_us_per_op": "us",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

PER_LAYER: Dict[str, str] = {
    # Served workloads.
    "loadgen.lateness_p50_us": "us",
    "loadgen.lateness_max_ms": "ms",
    "serve.server.self_us_per_op": "us",
    "serve.server.ops_per_read": "ratio",
    "serve.protocol.parse_us_per_op": "us",
    "serve.plugins.self_us_per_op": "us",
    "serve.plugins.cache_hit_ratio": "ratio",
    "greylist.policy.self_us_per_op": "us",
    "greylist.policy.decisions_per_op": "count",
    "greylist.policy.events_retained": "count",
    "greylist.store.observe_us_per_op": "us",
    "greylist.store.entries": "count",
    "runtime.gc_gen2_count": "count",
    "runtime.gc_pause_ms_total": "ms",
    "runtime.gc_pause_ms_max": "ms",
    "daemon.busy_share": "ratio",
    # sim-greylist.
    "sim.events.events_per_op": "count",
    "sim.events.self_ms_per_op": "ms",
    "net.connects_per_op": "count",
    "smtp.sessions_per_op": "count",
    "smtp.session_ms_per_op": "ms",
    "dns.resolves_per_op": "count",
    "dns.resolve_us_per_op": "us",
    "maillog.deployment_ms_per_op": "ms",
    "maillog.roundtrip_ms_per_op": "ms",
    # sim-adoption.
    "scan.population.plan_builds_per_op": "count",
    "scan.population.plan_ms_per_op": "ms",
    "scan.columnar.chunk_ms_per_op": "ms",
    "scan.batch.self_ms_per_op": "ms",
    "scan.detect.classify_calls_per_op": "count",
    "runner.pool.tasks_per_op": "count",
    "runner.pool.self_ms_per_op": "ms",
    "core.adoption.self_ms_per_op": "ms",
    # All workloads.
    "trace.overhead_pct": "%",
}


def complete(
    measured: Dict[str, Tuple[float, str]], trace: bool
) -> Dict[str, Dict[str, object]]:
    """Every metric of the run's kind, in catalogue order.

    Raises if a workload measured a metric the catalogue does not list
    or with another unit; fills layers the workload never entered
    with 0.
    """
    catalogue = PER_LAYER if trace else END_TO_END
    for name, (_, unit) in measured.items():
        if catalogue.get(name) != unit:
            raise ValueError(f"metric {name} [{unit}] is not in the catalogue")
    out: Dict[str, Dict[str, object]] = {}
    for name, unit in catalogue.items():
        value = measured[name][0] if name in measured else 0.0
        out[name] = {"value": float(value), "unit": unit}
    missing = [name for name in END_TO_END if name not in measured]
    if not trace and missing:
        raise ValueError(f"end-to-end metrics not measured: {missing}")
    return out
