"""Unit tests for the popularity ranking cross-check."""

import pytest

from repro.scan.alexa import (
    PAPER_NOLISTING_RANKS,
    crosscheck_from_ranks,
    plant_ranks,
)
from repro.scan.population import (
    DomainCategory,
    PopulationConfig,
    SyntheticInternet,
)


def domains_in(internet, category):
    """The generated domains of one category, in generation order."""
    return [t for t in internet.domains if t.category is category]


def build_internet(num_domains=3000, seed=42):
    return SyntheticInternet(PopulationConfig(num_domains=num_domains), seed=seed)


def adopter_ranks(internet):
    """Ranks of the true nolisting adopters (detection is tested elsewhere)."""
    return [t.alexa_rank for t in domains_in(internet, DomainCategory.NOLISTING)]


class TestPlanting:
    def test_planted_ranks_assigned(self):
        internet = build_internet()
        planted = plant_ranks(internet.domains)
        assert len(planted) == len(PAPER_NOLISTING_RANKS)
        rank_of = {t.name: t.alexa_rank for t in internet.domains}
        assert sorted(rank_of[name] for name in planted) == sorted(
            PAPER_NOLISTING_RANKS
        )

    def test_ranks_remain_a_permutation(self):
        internet = build_internet()
        plant_ranks(internet.domains)
        ranks = sorted(t.alexa_rank for t in internet.domains)
        assert ranks == list(range(1, internet.num_domains + 1))

    def test_no_accidental_adopters_in_popular_band(self):
        internet = build_internet()
        plant_ranks(internet.domains)
        popular_nolisting = [
            t
            for t in domains_in(internet, DomainCategory.NOLISTING)
            if t.alexa_rank <= 1000
        ]
        assert len(popular_nolisting) == len(PAPER_NOLISTING_RANKS)

    def test_raises_when_too_few_nolisting_domains(self):
        internet = build_internet(num_domains=200)  # ~1 nolisting domain
        with pytest.raises(ValueError):
            plant_ranks(internet.domains)

    def test_raises_naming_a_rank_outside_the_population(self):
        internet = build_internet(num_domains=900)  # 5 nolisting domains
        before = [t.alexa_rank for t in internet.domains]
        with pytest.raises(ValueError, match="rank 904"):
            plant_ranks(internet.domains)
        assert [t.alexa_rank for t in internet.domains] == before


class TestCrossCheck:
    def test_matches_paper_buckets(self):
        internet = build_internet()
        plant_ranks(internet.domains)
        result = crosscheck_from_ranks(adopter_ranks(internet))
        # "one domain in the top-15, two in the top-500 and other two in
        # the top-1000" -> cumulative 1 / 3 / 5.
        assert result.top15 == 1
        assert result.top500 == 3
        assert result.top1000 == 5

    def test_ranked_adopters_sorted(self):
        internet = build_internet()
        plant_ranks(internet.domains)
        result = crosscheck_from_ranks(adopter_ranks(internet))
        assert result.ranked_adopters == sorted(result.ranked_adopters)
        assert result.ranked_adopters[:5] == sorted(PAPER_NOLISTING_RANKS)
