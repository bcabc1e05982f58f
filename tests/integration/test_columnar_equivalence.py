"""Property tests: the columnar engine is bit-identical to object and batch.

The columnar pipeline (``engine="columnar"``) exists purely as a
performance optimization — parallel fixed-width columns instead of domain
objects, vectorized accounting instead of per-domain classification, a
streamed deployment column instead of a materialized list.  None of that
may show in any observable result, for any seed, profile, worker count,
fault plan or chunk size.  These tests pin that contract, mirroring
``test_batch_equivalence.py``.
"""

import pytest

from repro.core.adoption import run_adoption_experiment
from repro.core.internet_scale import run_internet_scale, sweep_deployment_rates
from repro.scan.alexa import PAPER_NOLISTING_RANKS
from repro.scan.profiles import profile_config


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


class TestAdoptionEquivalence:
    @pytest.mark.parametrize("num_domains", [100, 1000])
    def test_object_identical(self, num_domains):
        obj = run_adoption_experiment(
            num_domains=num_domains, seed=5, engine="object"
        )
        col = run_adoption_experiment(
            num_domains=num_domains, seed=5, engine="columnar"
        )
        _assert_adoption_equal(obj, col)

    @pytest.mark.parametrize("glue_elision_rate", [0.0, 0.1])
    def test_batch_identical_at_10k_vectorized(self, glue_elision_rate):
        # Without faults every payload stays on the vectorized path, with
        # or without glue elision (0.1 is the experiment's default) — no
        # delegation to the batch replay — compared against the batch
        # engine at a size the object path need not run at.
        kwargs = dict(
            num_domains=10_000, seed=13, glue_elision_rate=glue_elision_rate
        )
        bat = run_adoption_experiment(engine="batch", **kwargs)
        col = run_adoption_experiment(engine="columnar", **kwargs)
        _assert_adoption_equal(bat, col)

    @pytest.mark.parametrize("plant_popular", [True, False])
    @pytest.mark.parametrize("glue_elision_rate", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("profile", ["figure2", "provider-consolidated"])
    def test_object_identical_under_glue_elision(
        self, profile, glue_elision_rate, plant_popular
    ):
        # Elision only moves ``repaired``, which the columnar path counts
        # from the same per-domain streams the object scanner draws.
        config = profile_config(profile, num_domains=1200)
        kwargs = dict(
            seed=17,
            config=config,
            glue_elision_rate=glue_elision_rate,
            plant_popular=plant_popular,
        )
        obj = run_adoption_experiment(engine="object", **kwargs)
        col = run_adoption_experiment(engine="columnar", **kwargs)
        _assert_adoption_equal(obj, col)
        assert col.repaired_mx_records > 0
        if glue_elision_rate == 1.0:
            # Every glue record of both captures is elided and repaired.
            assert col.repaired_mx_records == 2 * col.summary.addresses_covered
        if plant_popular:
            assert set(PAPER_NOLISTING_RANKS) <= set(
                col.crosscheck.ranked_adopters
            )

    @pytest.mark.parametrize("fault_seed", [77, 3])
    def test_identical_under_fault_injection(self, fault_seed):
        # Faulted payloads delegate to the batch replay inside the
        # columnar shard; the delegation must be invisible.
        kwargs = dict(
            num_domains=600, seed=9, fault_rate=0.05, fault_seed=fault_seed
        )
        obj = run_adoption_experiment(engine="object", **kwargs)
        col = run_adoption_experiment(engine="columnar", **kwargs)
        _assert_adoption_equal(obj, col)

    @pytest.mark.parametrize(
        "profile", ["provider-consolidated", "dns-abuse"]
    )
    def test_identical_per_generator_profile(self, profile):
        config = profile_config(profile, num_domains=800)
        kwargs = dict(seed=21, config=config, plant_popular=False)
        obj = run_adoption_experiment(engine="object", **kwargs)
        col = run_adoption_experiment(engine="columnar", **kwargs)
        _assert_adoption_equal(obj, col)

    def test_identical_across_workers(self):
        runs = [
            run_adoption_experiment(
                num_domains=1000, seed=5, engine="columnar", workers=w
            )
            for w in (1, 2, 4)
        ]
        for other in runs[1:]:
            _assert_adoption_equal(runs[0], other)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_adoption_experiment(num_domains=60, engine="columnarx")


class TestInternetScaleEquivalence:
    @pytest.mark.parametrize("seed", [61, 7, 1234])
    @pytest.mark.parametrize(
        "grey,nolist", [(0.0, 0.0), (0.3, 0.1), (0.8, 0.2)]
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
        ref = run_internet_scale(engine="batch", **kwargs)
        col = run_internet_scale(
            engine="columnar", chunk_domains=chunk_domains, **kwargs
        )
        assert col == ref

    def test_sweep_identical_across_workers_and_engines(self):
        runs = [
            sweep_deployment_rates(
                messages=150, num_domains=200, seed=61, workers=w, engine=e
            )
            for w, e in ((1, "columnar"), (2, "columnar"), (4, "batch"))
        ]
        assert runs[0] == runs[1] == runs[2]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_internet_scale(num_domains=10, engine="turbo")
