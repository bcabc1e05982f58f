"""Alexa-style popularity ranking of the synthetic population.

The paper cross-checks the detected nolisting domains against the Alexa
ranking and finds adopters among the very largest sites (one in the top 15,
two in the top 500, two more in the top 1000).  The generator assigns every
domain a rank; this module plants nolisting adopters at paper-matching
ranks and answers the cross-check queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .population import DomainCategory

#: The paper's observation: ranks at which nolisting adopters were found.
PAPER_NOLISTING_RANKS: Sequence[int] = (13, 214, 402, 731, 904)


def plant_ranks(
    domains: Sequence, ranks: Sequence[int] = PAPER_NOLISTING_RANKS
) -> List[str]:
    """Force ``len(ranks)`` nolisting domains to hold the given Alexa ranks.

    Swaps ranks between the chosen nolisting domains and whichever domains
    currently hold the target ranks, keeping the rank assignment a
    permutation.  Returns the planted domain names.

    Works on any domain records with name/category/alexa_rank: the
    full-population :class:`DomainTruth` objects and the cheap
    :class:`~repro.scan.population.PlannedDomain` plan the parallel
    runner's coordinator plants *before* sharding.  The swap outcome
    depends only on (order, categories, ranks), so both assign identical
    ranks.
    """
    nolisted = [d for d in domains if d.category is DomainCategory.NOLISTING]
    if len(nolisted) < len(ranks):
        raise ValueError(
            f"population has only {len(nolisted)} nolisting domains, "
            f"cannot plant {len(ranks)}"
        )
    num_domains = len(domains)
    rank_holder: Dict[int, object] = {
        truth.alexa_rank: truth for truth in domains
    }
    for rank in ranks:
        if rank not in rank_holder:
            raise ValueError(
                f"no domain holds rank {rank}: cannot plant outside the "
                f"population's {num_domains} ranks"
            )

    # First evict accidental adopters from the popular band: in a population
    # of this size the rank space is small relative to the real internet's,
    # so the uniform shuffle seeds the top-1000 with far more nolisting
    # domains than the 0.52 % base rate would on 135 M domains.  Swap them
    # out so the popular band holds exactly the planted structure.
    popular_band = max(ranks) + 100
    swap_rank = num_domains
    for truth in nolisted:
        if truth.alexa_rank is None or truth.alexa_rank > popular_band:
            continue
        while swap_rank > popular_band:
            candidate = rank_holder.get(swap_rank)
            if (
                candidate is not None
                and candidate.category is not DomainCategory.NOLISTING
            ):
                break
            swap_rank -= 1
        else:  # pragma: no cover - population would have to be tiny
            break
        candidate = rank_holder[swap_rank]
        truth.alexa_rank, candidate.alexa_rank = (
            candidate.alexa_rank,
            truth.alexa_rank,
        )
        rank_holder[truth.alexa_rank] = truth
        rank_holder[candidate.alexa_rank] = candidate
        swap_rank -= 1

    planted: List[str] = []
    for truth, rank in zip(nolisted, ranks):
        other = rank_holder[rank]
        if other is truth:
            planted.append(truth.name)
            continue
        old_rank = truth.alexa_rank
        truth.alexa_rank, other.alexa_rank = rank, old_rank
        rank_holder[rank] = truth
        rank_holder[old_rank] = other
        planted.append(truth.name)
    return planted


@dataclass
class PopularityCrossCheck:
    """The 'nolisting among popular domains' result."""

    top15: int
    top500: int
    top1000: int
    ranked_adopters: List[int]


def crosscheck_from_ranks(
    adopter_ranks: Sequence[int],
) -> PopularityCrossCheck:
    """Bucket already-resolved adopter ranks (the shard-merge path)."""
    ranked = sorted(adopter_ranks)
    return PopularityCrossCheck(
        top15=sum(1 for r in ranked if r <= 15),
        top500=sum(1 for r in ranked if r <= 500),
        top1000=sum(1 for r in ranked if r <= 1000),
        ranked_adopters=ranked,
    )
