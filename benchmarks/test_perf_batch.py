"""Microbenchmark of synergy's equivalence-class batch engine.

This pins the throughput of the batched synergy path itself (the object
engine is covered by the experiment benches); the CI regression gate
compares it against the committed ``BENCH_0.json`` baseline.  The adoption
scan and the internet-scale sweep run on the columnar engine, benched in
``test_perf_columnar.py``.
"""

from repro.core.synergy import run_synergy_experiment
from repro.sim.batch import SessionOutcomeCache


def test_perf_batch_synergy(benchmark):
    """Batched synergy runs with a shared session-playbook cache."""
    cache = SessionOutcomeCache()

    def run():
        delivered = 0
        for configuration in ("greylist", "dnsbl", "both"):
            result = run_synergy_experiment(
                configuration,
                num_messages=100,
                seed=31,
                engine="batch",
                session_cache=cache,
            )
            delivered += result.num_messages
        return delivered

    assert benchmark(run) == 300
