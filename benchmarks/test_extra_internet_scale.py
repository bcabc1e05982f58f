"""Extension bench: the adoption x effectiveness synthesis.

Composes the paper's two measurement halves — who deploys the techniques
(Figure 2) and what each blocks (Table II) — into one end-to-end spam
wave over a mixed-deployment internet, and checks the measured block rate
against the analytic prediction.

On the columnar engine the sweep runs at a 10,000,000-domain internet; the per-object engine, its oracle, tops out around 60.  A
separate test pins the columnar speedup over the object engine; the
columnar throughput floor and memory budget are gated in
``test_perf_columnar.py``.
"""

import time

import pytest

from repro.analysis.tables import format_percent, render_table
from repro.core.internet_scale import (
    run_internet_scale,
    sweep_deployment_rates,
)

from _util import emit, traced_peak_mb

NUM_DOMAINS = 10_000_000
SWEEP_RATES = [(0.0, 0.0), (0.2, 0.05), (0.5, 0.1), (0.8, 0.2)]
# Heap footprint is measured at a smaller N; the columnar path rolls only
# the targeted domains, so peak memory is independent of NUM_DOMAINS —
# which the memory-budget gate asserts.
MEMORY_PROBE_DOMAINS = 1_000_000


def run_all():
    sweep = sweep_deployment_rates(
        rates=SWEEP_RATES,
        messages=400,
        num_domains=NUM_DOMAINS,
        engine="columnar",
    )
    return sweep


def test_internet_scale_synthesis(benchmark):
    sweep = benchmark.pedantic(run_all, rounds=1, iterations=1)
    domains_per_sec = (
        NUM_DOMAINS * len(SWEEP_RATES) / benchmark.stats.stats.min
    )
    _, peak_mb = traced_peak_mb(
        lambda: run_internet_scale(
            num_domains=MEMORY_PROBE_DOMAINS,
            greylisting_rate=0.5,
            nolisting_rate=0.1,
            messages=400,
            seed=42,
            engine="columnar",
        )
    )
    benchmark.extra_info["domains_per_sec"] = round(domains_per_sec)
    benchmark.extra_info["peak_rss_mb"] = round(peak_mb, 2)

    table = render_table(
        headers=(
            "Greylisting deployed",
            "Nolisting deployed",
            "Spam blocked (measured)",
            "Spam blocked (predicted)",
        ),
        rows=[
            (
                format_percent(r.greylisting_rate),
                format_percent(r.nolisting_rate),
                format_percent(r.block_rate),
                format_percent(r.predicted_block_rate),
            )
            for r in sweep
        ],
        title=(
            f"Spam wave (Table I family mix) vs deployment levels "
            f"({NUM_DOMAINS} domains)"
        ),
    )
    emit(
        "Synthesis — adoption x effectiveness",
        table
        + f"\n{domains_per_sec:,.0f} domains/sec; "
        f"peak heap {peak_mb:.1f} MiB at {MEMORY_PROBE_DOMAINS:,} domains",
    )

    assert all(r.num_domains == NUM_DOMAINS for r in sweep)
    # No deployment, no protection.
    assert sweep[0].block_rate == 0.0
    # Block rate grows with deployment and tracks the analytic model.
    rates = [r.block_rate for r in sweep]
    assert all(b >= a - 0.02 for a, b in zip(rates, rates[1:]))
    for r in sweep:
        assert r.block_rate == pytest.approx(r.predicted_block_rate, abs=0.08)


COLUMNAR_DOMAINS = 50_000


def test_batch_engine_speedup(benchmark):
    """The columnar engine must deliver >=10x domains/sec vs per-object.

    The object engine is timed at a size it can handle (1,000 domains) and
    the columnar engine at 50,000; throughput is domains/sec, so the
    comparison is fair despite the different sizes.
    """
    kwargs = dict(greylisting_rate=0.5, nolisting_rate=0.1, messages=400, seed=61)

    start = time.perf_counter()
    obj = run_internet_scale(num_domains=1000, engine="object", **kwargs)
    object_rate = 1000 / (time.perf_counter() - start)

    def run_columnar():
        return run_internet_scale(
            num_domains=COLUMNAR_DOMAINS, engine="columnar", **kwargs
        )

    result = benchmark.pedantic(run_columnar, rounds=3, iterations=1)
    columnar_rate = COLUMNAR_DOMAINS / benchmark.stats.stats.min

    assert obj.spam_sent == result.spam_sent == 400
    speedup = columnar_rate / object_rate
    emit(
        "Columnar engine throughput",
        f"object  : {object_rate:,.0f} domains/sec (1,000 domains)\n"
        f"columnar: {columnar_rate:,.0f} domains/sec "
        f"({COLUMNAR_DOMAINS:,} domains)\n"
        f"speedup : {speedup:,.1f}x",
    )
    assert speedup >= 10.0
