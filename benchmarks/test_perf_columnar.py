"""Microbenchmarks of the streaming columnar engine.

Two hard gates ride the smoke-bench set:

* **Throughput floor** — the columnar internet-scale path must sustain at
  least 1,000,000 domains/sec at a 1,000,000-domain internet.  That floor
  is what makes the 10,000,000-domain sweep in
  ``test_extra_internet_scale.py`` a seconds-scale run.
* **Memory budget** — peak Python-heap allocation of the same run must
  stay under a fixed cap.  The deployment rolls are streamed in
  fixed-size chunks and only the targeted ones are binned, so the peak
  is set by the chunk size and the spam wave, not by the domain count;
  measured ~6 MiB at both 1M and 4M domains, gated at 24 MiB.
"""

from repro.core.adoption import run_adoption_experiment
from repro.core.internet_scale import run_internet_scale

from _util import emit, traced_peak_mb

NUM_DOMAINS = 1_000_000
#: Hard floor on columnar internet-scale throughput (domains/sec).
THROUGHPUT_FLOOR = 1_000_000
#: Hard cap on peak heap allocation for the 1M-domain run (MiB).
MEMORY_CAP_MB = 24.0


def _run_wave():
    return run_internet_scale(
        num_domains=NUM_DOMAINS,
        greylisting_rate=0.5,
        nolisting_rate=0.1,
        messages=400,
        seed=61,
        engine="columnar",
    )


def test_perf_columnar_internet_scale(benchmark):
    """1M-domain spam wave: >=1M domains/sec, peak heap under 24 MiB."""
    result = benchmark.pedantic(_run_wave, rounds=3, iterations=1)
    assert result.spam_sent == 400

    domains_per_sec = NUM_DOMAINS / benchmark.stats.stats.min
    # Memory is probed outside the timed rounds: tracing costs ~5x the
    # untraced run and would corrupt the throughput measurement.
    _, peak_mb = traced_peak_mb(_run_wave)
    benchmark.extra_info["domains_per_sec"] = round(domains_per_sec)
    benchmark.extra_info["peak_rss_mb"] = round(peak_mb, 2)
    emit(
        "Columnar engine gates",
        f"throughput: {domains_per_sec:,.0f} domains/sec "
        f"(floor {THROUGHPUT_FLOOR:,})\n"
        f"peak heap : {peak_mb:.2f} MiB (cap {MEMORY_CAP_MB:.0f} MiB) "
        f"at {NUM_DOMAINS:,} domains",
    )
    assert domains_per_sec >= THROUGHPUT_FLOOR
    assert peak_mb < MEMORY_CAP_MB


def test_perf_columnar_adoption(benchmark):
    """Columnar adoption scan: classify 2,000 domains from columns."""

    def run():
        result = run_adoption_experiment(
            num_domains=2000, seed=7, engine="columnar"
        )
        return result.summary.total_domains

    assert benchmark(run) == 2000
