"""The population plan's memoized columns: one derivation per population.

Every plan of one ``(seed, num_domains, mix)`` in a process shares one
set of read-only columns, so an adoption run derives the whole-population
shuffles once however many shards it has.  These tests pin that count,
the memo's key, and that planting never leaks into the shared columns.
"""

import pytest

from repro.core.adoption import run_adoption_experiment
from repro.scan import population
from repro.scan.population import (
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
)
from repro.sim.rng import RandomStream


@pytest.fixture(autouse=True)
def cold_memo():
    """Start each test from an empty column memo, as a fresh process does."""
    population._plan_columns.cache_clear()
    yield
    population._plan_columns.cache_clear()


@pytest.fixture
def derivations(monkeypatch):
    """Count plan derivations as calls into the plan's category shuffle."""
    calls = []
    shuffle = RandomStream.shuffle

    def counting_shuffle(self, seq):
        if self.label == "population/order":
            calls.append(len(seq))
        return shuffle(self, seq)

    monkeypatch.setattr(RandomStream, "shuffle", counting_shuffle)
    return calls


def columns(plan):
    return plan._codes, bytes(plan._ranks), plan._counts


@pytest.mark.parametrize("engine", ["object", "batch", "columnar"])
def test_one_derivation_per_experiment(derivations, engine):
    result = run_adoption_experiment(num_domains=5000, workers=1, engine=engine)
    assert result.summary.total_domains == 5000
    # The coordinator and all 10 shards share one derivation.
    assert derivations == [5000]


def test_planting_never_reaches_the_shared_columns():
    def crosscheck(plant):
        return run_adoption_experiment(
            num_domains=5000, seed=3, engine="batch", plant_popular=plant
        ).crosscheck

    unplanted = crosscheck(False)
    planted = crosscheck(True)
    assert planted != unplanted
    # Same population, memo still warm from the planted run.
    assert crosscheck(False) == unplanted


def test_rederivation_after_eviction_is_identical():
    config = PopulationConfig(num_domains=1200)
    first = columns(PopulationPlan(config, seed=1))
    PopulationPlan(config, seed=2)  # evicts the one-entry memo
    assert columns(PopulationPlan(config, seed=1)) == first


@pytest.mark.parametrize(
    "config, seed",
    [
        (PopulationConfig(num_domains=1200), 2),
        (PopulationConfig(num_domains=1201), 1),
        (
            PopulationConfig(
                num_domains=1200,
                mix={
                    DomainCategory.SINGLE_MX: 0.5,
                    DomainCategory.MULTI_MX: 0.4,
                    DomainCategory.MISCONFIGURED: 0.05,
                    DomainCategory.NOLISTING: 0.05,
                },
            ),
            1,
        ),
    ],
    ids=["seed", "size", "mix"],
)
def test_different_populations_get_different_columns(config, seed):
    a = PopulationPlan(PopulationConfig(num_domains=1200), seed=1)
    b = PopulationPlan(config, seed=seed)
    assert a._codes != b._codes


def test_mix_insertion_order_shares_columns():
    mix = PopulationConfig().mix
    a = PopulationPlan(PopulationConfig(num_domains=800, mix=dict(mix)), seed=4)
    reordered = dict(reversed(list(mix.items())))
    b = PopulationPlan(PopulationConfig(num_domains=800, mix=reordered), seed=4)
    assert a._codes is b._codes


@pytest.mark.parametrize(
    "other",
    [
        {"chunk_size": 100},
        {"transient_outage_rate": 0.02, "persistent_outage_rate": 0.01},
        {"address_space": "172.16.0.0/12"},
    ],
    ids=["chunk-size", "outage-rates", "address-space"],
)
def test_generation_knobs_share_columns(other):
    a = PopulationPlan(PopulationConfig(num_domains=1000), seed=6)
    b = PopulationPlan(PopulationConfig(num_domains=1000, **other), seed=6)
    assert a._codes is b._codes
    assert a._ranks is b._ranks
    assert a._counts is b._counts


def test_shared_columns_still_chunk_by_each_plans_size():
    wide = PopulationPlan(PopulationConfig(num_domains=1000, chunk_size=512), seed=6)
    narrow = PopulationPlan(PopulationConfig(num_domains=1000, chunk_size=100), seed=6)
    assert wide._codes is narrow._codes
    assert narrow.num_chunks == 10 and wide.num_chunks == 2
    narrow_rows = [row for k in range(10) for row in narrow.chunk_rows(k)]
    wide_rows = [row for k in range(2) for row in wide.chunk_rows(k)]
    assert narrow_rows == wide_rows
    assert [len(narrow.chunk_rows(k)) for k in range(10)] == [100] * 10
    assert [row[0] for row in narrow.chunk_rows(3)] == list(range(300, 400))
    assert [len(wide.chunk_rows(k)) for k in range(2)] == [512, 488]


def test_memoized_columns_are_read_only():
    plan = PopulationPlan(PopulationConfig(num_domains=1000), seed=8)
    with pytest.raises(TypeError):
        plan._codes[0] = 1
    with pytest.raises(TypeError):
        plan._ranks[0] = 1
    with pytest.raises(TypeError):
        plan._counts[0] = 1


def test_planting_one_plan_leaves_another_unplanted():
    config = PopulationConfig(num_domains=3000)
    planted = PopulationPlan(config, seed=42)
    fresh = PopulationPlan(config, seed=42)
    before = dict(fresh.rank_of())
    names = planted.plant((13, 214, 402, 731, 904))
    assert {planted.rank_of()[n] for n in names} == {13, 214, 402, 731, 904}
    assert planted.rank_of() != before
    assert PopulationPlan(config, seed=42).rank_of() == before
    assert fresh.rank_of() == before
