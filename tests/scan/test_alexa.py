"""Unit tests for the popularity ranking cross-check."""

import pytest

from repro.scan.alexa import (
    PAPER_NOLISTING_RANKS,
    crosscheck_from_ranks,
)
from repro.scan.population import (
    CATEGORY_ORDER,
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
)


def build_plan(num_domains=3000, seed=42):
    return PopulationPlan(PopulationConfig(num_domains=num_domains), seed=seed)


def all_ranks(plan):
    return [plan.rank(index) for index in range(plan.config.num_domains)]


def adopter_ranks(plan):
    """Ranks of the true nolisting adopters (detection is tested elsewhere)."""
    return [
        rank
        for chunk in range(plan.num_chunks)
        for _, code, rank in plan.chunk_rows(chunk)
        if CATEGORY_ORDER[code] is DomainCategory.NOLISTING
    ]


class TestPlanting:
    def test_planted_ranks_assigned(self):
        plan = build_plan()
        planted = plan.plant(PAPER_NOLISTING_RANKS)
        assert len(planted) == len(PAPER_NOLISTING_RANKS)
        assert sorted(plan.rank(index) for index in planted) == sorted(
            PAPER_NOLISTING_RANKS
        )

    def test_ranks_remain_a_permutation(self):
        plan = build_plan()
        plan.plant(PAPER_NOLISTING_RANKS)
        assert sorted(all_ranks(plan)) == list(range(1, plan.config.num_domains + 1))

    def test_no_accidental_adopters_in_popular_band(self):
        plan = build_plan()
        plan.plant(PAPER_NOLISTING_RANKS)
        popular = [rank for rank in adopter_ranks(plan) if rank <= 1000]
        assert len(popular) == len(PAPER_NOLISTING_RANKS)

    def test_raises_when_too_few_nolisting_domains(self):
        plan = build_plan(num_domains=200)  # ~1 nolisting domain
        with pytest.raises(ValueError):
            plan.plant(PAPER_NOLISTING_RANKS)

    def test_raises_naming_a_rank_outside_the_population(self):
        plan = build_plan(num_domains=900)  # 5 nolisting domains
        before = all_ranks(plan)
        with pytest.raises(ValueError, match="rank 904"):
            plan.plant(PAPER_NOLISTING_RANKS)
        assert all_ranks(plan) == before


class TestCrossCheck:
    def test_matches_paper_buckets(self):
        plan = build_plan()
        plan.plant(PAPER_NOLISTING_RANKS)
        result = crosscheck_from_ranks(adopter_ranks(plan))
        # "one domain in the top-15, two in the top-500 and other two in
        # the top-1000" -> cumulative 1 / 3 / 5.
        assert result.top15 == 1
        assert result.top500 == 3
        assert result.top1000 == 5

    def test_ranked_adopters_sorted(self):
        plan = build_plan()
        plan.plant(PAPER_NOLISTING_RANKS)
        result = crosscheck_from_ranks(adopter_ranks(plan))
        assert result.ranked_adopters == sorted(result.ranked_adopters)
        assert result.ranked_adopters[:5] == sorted(PAPER_NOLISTING_RANKS)
