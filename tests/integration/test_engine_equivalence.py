"""Property tests: every fast engine is bit-identical to its object oracle.

The per-object simulation is the oracle: it builds the synthetic world and
runs every DNS lookup, banner grab and SMTP dialogue.  The fast engines
exist purely as performance optimizations and none of their mechanics may
show in any observable result, for any seed, configuration, profile,
fault plan, chunk size or worker count.  ``engine="columnar"`` (the
default of the adoption scan and the internet-scale sweep) holds the
population as parallel fixed-width columns, vectorizes the fault-free
accounting, replays faulted shards domain by domain, and streams the
deployment column instead of materializing it.

These tests state that contract once, oracle against fast engine.
"""

import pytest

from repro.core.adoption import run_adoption_experiment
from repro.core.internet_scale import run_internet_scale, sweep_deployment_rates
from repro.core.synergy import sweep_greylist_delay
from repro.scan.alexa import PAPER_NOLISTING_RANKS
from repro.scan.profiles import profile_config
from repro.sim.batch import BatchCounters, SessionOutcomeCache


def _assert_adoption_equal(a, b):
    assert b.summary.counts == a.summary.counts
    assert b.summary.flapped == a.summary.flapped
    assert b.summary.total_domains == a.summary.total_domains
    assert b.summary.servers_covered == a.summary.servers_covered
    assert b.summary.addresses_covered == a.summary.addresses_covered
    assert b.confusion == a.confusion
    assert b.repaired_mx_records == a.repaired_mx_records
    assert b.crosscheck == a.crosscheck
    assert b.ground_truth == a.ground_truth
    assert b == a


def _assert_columnar_matches_object(**kwargs):
    obj = run_adoption_experiment(engine="object", **kwargs)
    col = run_adoption_experiment(engine="columnar", **kwargs)
    _assert_adoption_equal(obj, col)
    return col


class TestAdoptionEquivalence:
    @pytest.mark.parametrize("num_domains", [100, 1000, 1100])
    def test_identical_across_sizes(self, num_domains):
        # 1100 domains = 3 chunks (one partial), exercising the shard merge.
        _assert_columnar_matches_object(num_domains=num_domains, seed=5)

    @pytest.mark.parametrize("glue_elision_rate", [0.0, 0.1])
    def test_identical_at_10k_vectorized(self, glue_elision_rate):
        # Without faults every payload stays on the vectorized path, with
        # or without glue elision (0.1 is the experiment's default), over
        # twenty chunks.
        _assert_columnar_matches_object(
            num_domains=10_000, seed=13, glue_elision_rate=glue_elision_rate
        )

    @pytest.mark.parametrize("plant_popular", [True, False])
    @pytest.mark.parametrize("glue_elision_rate", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("profile", ["figure2", "provider-consolidated"])
    def test_identical_under_glue_elision(
        self, profile, glue_elision_rate, plant_popular
    ):
        # Elision only moves ``repaired``, which the columnar path counts
        # from the same per-domain streams the object scanner draws.
        col = _assert_columnar_matches_object(
            seed=17,
            config=profile_config(profile, num_domains=1200),
            glue_elision_rate=glue_elision_rate,
            plant_popular=plant_popular,
        )
        assert col.repaired_mx_records > 0
        if glue_elision_rate == 1.0:
            # Every glue record of both captures is elided and repaired.
            assert col.repaired_mx_records == 2 * col.summary.addresses_covered
        if plant_popular:
            assert set(PAPER_NOLISTING_RANKS) <= set(
                col.crosscheck.ranked_adopters
            )

    @pytest.mark.parametrize("fault_rate", [0.05, 0.3])
    @pytest.mark.parametrize("fault_seed", [77, 3])
    def test_identical_under_fault_injection(self, fault_seed, fault_rate):
        # Fault draws are keyed by entity, not by execution order, so the
        # columnar shard's faulted replay reproduces the faulted verdicts.
        _assert_columnar_matches_object(
            num_domains=600, seed=9, fault_rate=fault_rate, fault_seed=fault_seed
        )

    @pytest.mark.parametrize("profile", ["provider-consolidated", "dns-abuse"])
    @pytest.mark.parametrize("fault_rate", [0.0, 0.05])
    def test_identical_per_generator_profile(self, profile, fault_rate):
        _assert_columnar_matches_object(
            seed=21,
            config=profile_config(profile, num_domains=800),
            plant_popular=False,
            fault_rate=fault_rate,
        )

    def test_identical_across_workers(self):
        runs = [
            run_adoption_experiment(
                num_domains=1000, seed=5, engine="columnar", workers=w
            )
            for w in (1, 2, 4)
        ]
        for other in runs[1:]:
            _assert_adoption_equal(runs[0], other)

    @pytest.mark.parametrize("engine", ["batch", "columnarx"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="engine"):
            run_adoption_experiment(num_domains=60, engine=engine)


class TestInternetScaleEquivalence:
    @pytest.mark.parametrize("seed", [61, 7, 1234])
    @pytest.mark.parametrize(
        "grey,nolist", [(0.0, 0.0), (0.3, 0.1), (0.8, 0.2), (0.0, 1.0)]
    )
    def test_identical_across_rates_and_seeds(self, seed, grey, nolist):
        kwargs = dict(
            num_domains=60,
            greylisting_rate=grey,
            nolisting_rate=nolist,
            messages=200,
            seed=seed,
        )
        obj = run_internet_scale(engine="object", **kwargs)
        col = run_internet_scale(engine="columnar", **kwargs)
        assert col == obj

    @pytest.mark.parametrize("delay", [5.0, 300.0, 21600.0])
    def test_identical_across_greylist_delays(self, delay):
        kwargs = dict(
            num_domains=50,
            greylisting_rate=0.5,
            nolisting_rate=0.2,
            messages=150,
            greylist_delay=delay,
            seed=17,
        )
        assert run_internet_scale(engine="columnar", **kwargs) == run_internet_scale(
            engine="object", **kwargs
        )

    @pytest.mark.parametrize("chunk_domains", [16, 100, 100_000])
    def test_identical_across_chunk_sizes(self, chunk_domains):
        # The streamed deployment column's chunk size is pure mechanics:
        # draws replay identically whatever the chunk boundaries.
        kwargs = dict(
            num_domains=300,
            greylisting_rate=0.5,
            nolisting_rate=0.1,
            messages=200,
            seed=61,
        )
        ref = run_internet_scale(engine="object", **kwargs)
        col = run_internet_scale(
            engine="columnar", chunk_domains=chunk_domains, **kwargs
        )
        assert col == ref

    def test_counters_report_collapse(self):
        counters = BatchCounters()
        run_internet_scale(
            num_domains=5000,
            messages=300,
            seed=61,
            engine="columnar",
            counters=counters,
        )
        assert counters.members == 300
        # family x deployment classes: at most 4 x 3.
        assert counters.classes <= 12
        assert counters.collapse_factor > 10

    def test_sweep_identical_across_workers_and_engines(self):
        runs = [
            sweep_deployment_rates(
                messages=150, num_domains=200, seed=61, workers=w, engine=e
            )
            for w, e in ((1, "columnar"), (2, "columnar"), (4, "columnar"), (2, "object"))
        ]
        assert runs[0] == runs[1] == runs[2] == runs[3]

    @pytest.mark.parametrize("engine", ["batch", "turbo"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="engine"):
            run_internet_scale(num_domains=10, engine=engine)

    @pytest.mark.parametrize("engine", ["batch", "turbo"])
    def test_sweep_rejects_unknown_engine(self, engine):
        with pytest.raises(ValueError, match="engine"):
            sweep_deployment_rates(num_domains=10, engine=engine)


class TestWorkerAndCacheDeterminism:
    def test_synergy_sweep_identical_across_workers(self):
        runs = [
            sweep_greylist_delay(seed=31, workers=w)
            for w in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_shared_cache_matches_fresh_cache(self):
        # A playbook cached by one run and replayed by the next must not
        # change anything: the cache is a pure memo.
        shared = SessionOutcomeCache()
        kwargs = dict(num_domains=100, messages=200, seed=61, engine="columnar")
        first = run_internet_scale(session_cache=shared, **kwargs)
        second = run_internet_scale(session_cache=shared, **kwargs)
        fresh = run_internet_scale(**kwargs)
        assert first == second == fresh
        assert shared.hits > 0

    def test_capacity_one_cache_matches_unbounded(self):
        # Constant eviction churn (capacity 1) rebuilds playbooks over and
        # over but must never change the result.
        tiny = SessionOutcomeCache(capacity=1)
        kwargs = dict(num_domains=100, messages=200, seed=61, engine="columnar")
        assert run_internet_scale(session_cache=tiny, **kwargs) == run_internet_scale(
            **kwargs
        )
        assert tiny.evictions > 0


class TestPayloadCacheIdentity:
    """A shard payload names its engine only off the columnar default.

    So a columnar payload is byte-identical to the payload the object
    engine produced while it was the default, and hits that cache entry,
    which holds the same result.
    """

    @staticmethod
    def _record_payloads(monkeypatch, owner):
        seen = []
        real = owner.run_tasks

        def recording(fn, payloads, **kwargs):
            seen.extend(payloads)
            return real(fn, payloads, **kwargs)

        monkeypatch.setattr(owner, "run_tasks", recording)
        return seen

    @pytest.mark.parametrize("engine, expected", [("columnar", None), ("object", "object")])
    def test_adoption_payloads(self, monkeypatch, engine, expected):
        from repro.core import adoption

        seen = self._record_payloads(monkeypatch, adoption)
        run_adoption_experiment(num_domains=600, engine=engine)
        assert seen and all(p.get("engine") == expected for p in seen)

    @pytest.mark.parametrize("engine, expected", [("columnar", None), ("object", "object")])
    def test_sweep_payloads(self, monkeypatch, engine, expected):
        from repro.runner import pool

        seen = self._record_payloads(monkeypatch, pool)
        sweep_deployment_rates(rates=[(0.3, 0.1)], messages=20, engine=engine)
        assert seen and all(p.get("engine") == expected for p in seen)
