"""Parallel runs must be bit-for-bit identical to serial runs.

The contract that makes ``--workers N`` safe to use anywhere: chunked
generation, per-payload RNG derivation and ordered merge together mean the
worker count can never change a result — only how fast it arrives.
"""

import pytest

from repro.core.adoption import run_adoption_experiment
from repro.core.sensitivity import adoption_sensitivity
from repro.runner.cache import ResultCache
from repro.scan.population import (
    DomainCategory,
    PopulationConfig,
    SyntheticInternet,
)

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module", params=["object", "columnar"])
def engine(request):
    return request.param


@pytest.fixture(scope="module")
def serial_adoption(engine):
    return run_adoption_experiment(num_domains=1200, seed=17, engine=engine)


class TestAdoptionDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_workers_do_not_change_result(self, serial_adoption, engine, workers):
        run = run_adoption_experiment(
            num_domains=1200, seed=17, engine=engine, workers=workers
        )
        assert run == serial_adoption

    def test_cached_rerun_identical(self, serial_adoption, engine, tmp_path):
        cache = ResultCache(root=tmp_path)
        cold = run_adoption_experiment(
            num_domains=1200, seed=17, engine=engine, workers=2, cache=cache
        )
        assert cache.stores > 0
        warm = run_adoption_experiment(
            num_domains=1200, seed=17, engine=engine, workers=2, cache=cache
        )
        assert cache.hits >= cache.stores
        assert cold == serial_adoption
        assert warm == serial_adoption


class TestSensitivityDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_adoption_sensitivity_identical(self, workers):
        serial = adoption_sensitivity(seeds=(1, 2), num_domains=600)
        fanned = adoption_sensitivity(
            seeds=(1, 2), num_domains=600, workers=workers
        )
        assert fanned == serial


class TestShardedGeneration:
    def test_shards_union_equals_full_population(self):
        config = PopulationConfig(num_domains=1100, chunk_size=256)
        full = SyntheticInternet(config, seed=23)
        pieces = [
            SyntheticInternet.shard(config, 23, [k])
            for k in range(config.num_chunks)
        ]
        stitched = [truth for piece in pieces for truth in piece.domains]
        assert len(stitched) == len(full.domains)
        for mine, theirs in zip(stitched, full.domains):
            assert mine.name == theirs.name
            assert mine.category is theirs.category
            assert mine.mx_hosts == theirs.mx_hosts
            assert mine.outage_scan == theirs.outage_scan
            assert mine.persistent_outage == theirs.persistent_outage
            assert mine.alexa_rank == theirs.alexa_rank

    def test_shard_content_independent_of_sibling_chunks(self):
        config = PopulationConfig(num_domains=1024, chunk_size=256)
        alone = SyntheticInternet.shard(config, 5, [2])
        with_siblings = SyntheticInternet.shard(config, 5, [0, 2, 3])
        by_name = {t.name: t for t in with_siblings.domains}
        for truth in alone.domains:
            sibling = by_name[truth.name]
            assert truth.mx_hosts == sibling.mx_hosts
            assert truth.outage_scan == sibling.outage_scan

    def test_chunk_size_is_part_of_population_identity(self):
        # Different chunk sizes are different populations (documented, so
        # cache keys and shard merges can rely on it) — but the category
        # totals still follow the configured mix exactly.
        a = SyntheticInternet(PopulationConfig(num_domains=600, chunk_size=100), seed=3)
        b = SyntheticInternet(PopulationConfig(num_domains=600, chunk_size=300), seed=3)
        assert a.truth_counts() == b.truth_counts()

    def test_plan_category_totals_exact(self):
        config = PopulationConfig(num_domains=5000)
        internet = SyntheticInternet(config, seed=11)
        counts = internet.truth_counts()
        assert counts[DomainCategory.NOLISTING] == 26
        assert sum(counts.values()) == 5000
