"""Alexa-style popularity ranking of the synthetic population.

The paper cross-checks the detected nolisting domains against the Alexa
ranking and finds adopters among the very largest sites (one in the top 15,
two in the top 500, two more in the top 1000).  The generator assigns every
domain a rank; this module plants nolisting adopters at paper-matching
ranks and answers the cross-check queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .population import CATEGORY_CODE, DomainCategory

#: The paper's observation: ranks at which nolisting adopters were found.
PAPER_NOLISTING_RANKS: Sequence[int] = (13, 214, 402, 731, 904)


def plant_ranks(
    categories: bytes,
    shuffled: Sequence[int],
    ranks: Sequence[int] = PAPER_NOLISTING_RANKS,
) -> Tuple[List[int], Dict[int, int]]:
    """Force ``len(ranks)`` nolisting domains to hold the given Alexa ranks.

    ``categories`` is a plan's category-code column and ``shuffled`` its
    rank column, a permutation of ``1..n``.  Swaps ranks between the first
    nolisting domains and whichever domains hold the target ranks, keeping
    the ranks a permutation.  Returns the planted indices and ``{index:
    rank}`` for every domain whose rank moved; the columns stay as they
    are.
    """
    nolisting = CATEGORY_CODE[DomainCategory.NOLISTING]
    adopters = categories.count(nolisting)
    if adopters < len(ranks):
        raise ValueError(
            f"population has only {adopters} nolisting domains, "
            f"cannot plant {len(ranks)}"
        )
    num_domains = len(shuffled)
    for rank in ranks:
        if not 1 <= rank <= num_domains:
            raise ValueError(
                f"no domain holds rank {rank}: cannot plant outside the "
                f"population's {num_domains} ranks"
            )

    # Only two stretches of the ranking can move: the popular band, and
    # the bottom, where eviction sends adopters.  Eviction walks up from
    # the last rank, spending one rank per adopter it moves and skipping
    # one per adopter it meets, so it stays within the last ``adopters``.
    popular_band = max(ranks) + 100
    bottom = max(popular_band, num_domains - adopters)
    holder = {
        rank: index
        for index, rank in enumerate(shuffled)
        if rank <= popular_band or rank > bottom
    }
    moved: Dict[int, int] = {}

    def swap(a: int, b: int) -> None:
        rank_a = moved.get(a, shuffled[a])
        rank_b = moved.get(b, shuffled[b])
        moved[a], moved[b] = rank_b, rank_a
        holder[rank_a], holder[rank_b] = b, a

    # First evict accidental adopters from the popular band: in a population
    # of this size the rank space is small relative to the real internet's,
    # so the uniform shuffle seeds the top-1000 with far more nolisting
    # domains than the 0.52 % base rate would on 135 M domains.  Swap them
    # out so the popular band holds exactly the planted structure.
    accidental = sorted(
        index
        for rank, index in holder.items()
        if rank <= popular_band and categories[index] == nolisting
    )
    swap_rank = num_domains
    for index in accidental:
        while swap_rank > popular_band and categories[holder[swap_rank]] == nolisting:
            swap_rank -= 1
        if swap_rank <= popular_band:  # no rank below the band is left
            break
        swap(index, holder[swap_rank])
        swap_rank -= 1

    planted: List[int] = []
    index = -1
    for rank in ranks:
        index = categories.find(nolisting, index + 1)
        if holder[rank] != index:
            swap(index, holder[rank])
        planted.append(index)
    return planted, moved


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
