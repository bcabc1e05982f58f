"""Unit tests for the popularity ranking cross-check."""

import pytest

from repro.scan.alexa import (
    PAPER_NOLISTING_RANKS,
    crosscheck_popularity,
    plant_popular_nolisting,
)
from repro.scan.detect import DomainClass, DomainVerdict
from repro.scan.population import (
    DomainCategory,
    PopulationConfig,
    SyntheticInternet,
)


def build_internet(num_domains=3000, seed=42):
    return SyntheticInternet(PopulationConfig(num_domains=num_domains), seed=seed)


def perfect_verdicts(internet):
    """Verdicts matching ground truth exactly (pipeline is tested elsewhere)."""
    mapping = {
        DomainCategory.SINGLE_MX: DomainClass.ONE_MX,
        DomainCategory.MULTI_MX: DomainClass.MULTI_MX_NO_NOLISTING,
        DomainCategory.NOLISTING: DomainClass.NOLISTING,
        DomainCategory.MISCONFIGURED: DomainClass.DNS_MISCONFIGURED,
    }
    return [
        DomainVerdict(domain=t.name, domain_class=mapping[t.category])
        for t in internet.domains
    ]


class TestPlanting:
    def test_planted_ranks_assigned(self):
        internet = build_internet()
        planted = plant_popular_nolisting(internet)
        assert len(planted) == len(PAPER_NOLISTING_RANKS)
        rank_of = {t.name: t.alexa_rank for t in internet.domains}
        assert sorted(rank_of[name] for name in planted) == sorted(
            PAPER_NOLISTING_RANKS
        )

    def test_ranks_remain_a_permutation(self):
        internet = build_internet()
        plant_popular_nolisting(internet)
        ranks = sorted(t.alexa_rank for t in internet.domains)
        assert ranks == list(range(1, internet.num_domains + 1))

    def test_no_accidental_adopters_in_popular_band(self):
        internet = build_internet()
        plant_popular_nolisting(internet)
        popular_nolisting = [
            t
            for t in internet.domains_in(DomainCategory.NOLISTING)
            if t.alexa_rank <= 1000
        ]
        assert len(popular_nolisting) == len(PAPER_NOLISTING_RANKS)

    def test_raises_when_too_few_nolisting_domains(self):
        internet = build_internet(num_domains=200)  # ~1 nolisting domain
        with pytest.raises(ValueError):
            plant_popular_nolisting(internet)

    def test_raises_naming_a_rank_outside_the_population(self):
        internet = build_internet(num_domains=900)  # 5 nolisting domains
        before = [t.alexa_rank for t in internet.domains]
        with pytest.raises(ValueError, match="rank 904"):
            plant_popular_nolisting(internet)
        assert [t.alexa_rank for t in internet.domains] == before


class TestCrossCheck:
    def test_matches_paper_buckets(self):
        internet = build_internet()
        plant_popular_nolisting(internet)
        result = crosscheck_popularity(internet, perfect_verdicts(internet))
        # "one domain in the top-15, two in the top-500 and other two in
        # the top-1000" -> cumulative 1 / 3 / 5.
        assert result.top15 == 1
        assert result.top500 == 3
        assert result.top1000 == 5

    def test_ranked_adopters_sorted(self):
        internet = build_internet()
        plant_popular_nolisting(internet)
        result = crosscheck_popularity(internet, perfect_verdicts(internet))
        assert result.ranked_adopters == sorted(result.ranked_adopters)
        assert result.ranked_adopters[:5] == sorted(PAPER_NOLISTING_RANKS)
