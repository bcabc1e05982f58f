"""Columnar struct-of-arrays pipeline: the fast engine.

The object path (the oracle) materializes these columns as one
:class:`~repro.scan.population.DomainTruth` (plus zones, address objects
and probe state) per domain.  At internet scale that does not fit: 10M
domains of per-domain objects is gigabytes of heap.  This module holds the
population as **parallel columns** — one small fixed-width cell per domain
for rank, ground-truth category, MX topology, outage schedule, provider
pool and generator profile — built one ~100k-domain chunk at a time, so
peak memory is bounded by the chunk size, not the population size.

Each column is a stdlib :mod:`array` buffer of fixed-width integers.

Determinism contract
--------------------
Every generation draw is made here, in :func:`build_columnar_chunk`, and
the object oracle materializes its world from the same cells
(:class:`~repro.scan.population.SyntheticInternet`); the glue-elision
count reads the object scanner's keyed draws
(:func:`repro.scan.batch.elided_glue`).  What the fast engine saves is
work *after* the draws: it counts each chunk's distinct outcome keys and
runs the real classifiers once per key, which is what keeps it
bit-for-bit identical to the object oracle at any N.

>>> CATEGORY_TOPOLOGIES[TOPO_NOLISTING].value
'nolisting'
"""

from __future__ import annotations

from array import array
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from ..net.address import IPv4Network
from ..sim.rng import RandomStream
from .population import (
    CATEGORY_ORDER,
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    population_from_params,
    provider_pool_address,
    provider_pool_apex,
    provider_pool_host,
)
from .profiles import PROFILE_CODE


# ----------------------------------------------------------------------
# Topology codes (the "MX topology id" column)
# ----------------------------------------------------------------------
TOPO_NO_MX = 0
TOPO_DANGLING = 1
TOPO_SINGLE = 2
TOPO_MULTI = 3
TOPO_NOLISTING = 4
TOPO_POOL_FAILOVER = 5
TOPO_POOL_BALANCED = 6

#: topology code -> the ground-truth category it can occur under.
CATEGORY_TOPOLOGIES: Dict[int, DomainCategory] = {
    TOPO_NO_MX: DomainCategory.MISCONFIGURED,
    TOPO_DANGLING: DomainCategory.MISCONFIGURED,
    TOPO_SINGLE: DomainCategory.SINGLE_MX,
    TOPO_MULTI: DomainCategory.MULTI_MX,
    TOPO_NOLISTING: DomainCategory.NOLISTING,
    TOPO_POOL_FAILOVER: DomainCategory.MULTI_MX,
    TOPO_POOL_BALANCED: DomainCategory.MULTI_MX,
}

#: Sentinel in the ``addr_offset`` column for "no population address"
#: (dangling MX, and pool-hosted domains whose addresses are arithmetic in
#: the provider block instead).  A no-MX domain's cell holds the offset of
#: its ``www`` A record.
NO_ADDRESS = (1 << 64) - 1

#: Sentinels in the small signed columns.
NO_OUTAGE = -1
NO_POOL = -1


class ColumnarChunk:
    """One generation chunk of the population as parallel columns.

    Every cell is a fixed-width integer; the full per-domain ground truth
    (records, hostnames, preferences, addresses) is *derivable* from the
    columns via :func:`chunk_records` — nothing else needs to be stored.
    """

    __slots__ = (
        "chunk_index",
        "start",
        "n",
        "addr_base",
        "category",
        "rank",
        "topology",
        "mx_count",
        "outage_scan",
        "persistent",
        "provider_pool",
        "addr_offset",
        "profile",
    )

    def __init__(
        self,
        chunk_index: int,
        start: int,
        addr_base: int,
        category,
        rank,
        topology,
        mx_count,
        outage_scan,
        persistent,
        provider_pool,
        addr_offset,
        profile,
    ) -> None:
        self.chunk_index = chunk_index
        self.start = start
        self.addr_base = addr_base
        self.category = category
        self.rank = rank
        self.topology = topology
        self.mx_count = mx_count
        self.outage_scan = outage_scan
        self.persistent = persistent
        self.provider_pool = provider_pool
        self.addr_offset = addr_offset
        self.profile = profile
        self.n = len(category)


def build_columnar_chunk(
    plan: PopulationPlan,
    config: PopulationConfig,
    seed: int,
    chunk_index: int,
) -> ColumnarChunk:
    """Make one chunk's generation draws and write them as columns.

    The population's only generator: the fast engine reads these cells,
    and :class:`~repro.scan.population.SyntheticInternet` materialises its
    zones and truths from them.  No zones, no address allocator, no
    per-domain objects — addresses are arithmetic offsets into the chunk's
    slice and pool addresses are arithmetic in the provider block.
    """
    chunk_rng = RandomStream(seed, "population").split(f"chunk:{chunk_index}")
    outage_rng = chunk_rng.split("outages")
    mx_rng = chunk_rng.split("mx-count")
    misc_rng = chunk_rng.split("misconfig")
    # The provider stream exists (and is drawn from) only when pools are
    # enabled, so pool-free populations stay bit-identical to releases that
    # predate provider pools.
    provider_rng = (
        chunk_rng.split("provider")
        if config.provider_pool_fraction > 0
        else None
    )

    network = IPv4Network.parse(config.address_space)
    next_offset = chunk_index * config.chunk_address_stride
    profile_code = PROFILE_CODE.get(config.profile, 0)

    categories: List[int] = []
    ranks: List[int] = []
    topologies: List[int] = []
    mx_counts: List[int] = []
    outages: List[int] = []
    persistents: List[int] = []
    pools: List[int] = []
    offsets: List[int] = []

    for _, code, rank in plan.chunk_rows(chunk_index):
        category = CATEGORY_ORDER[code]
        topology = TOPO_SINGLE
        mx_count = 0
        outage = NO_OUTAGE
        persistent = 0
        pool_id = NO_POOL
        offset = NO_ADDRESS
        # Only a live self-hosted primary draws a transient outage.  Pool
        # exchangers are shared, so a per-domain draw would couple unrelated
        # domains through a common address.
        transient = False

        if category is DomainCategory.SINGLE_MX:
            topology = TOPO_SINGLE
            mx_count = 1
            offset = next_offset
            next_offset += 1
            transient = True
        elif category is DomainCategory.MULTI_MX:
            extra = mx_rng.weighted_index(list(config.extra_mx_weights)) + 1
            mx_count = extra + 1
            pooled = (
                provider_rng is not None
                and provider_rng.random() < config.provider_pool_fraction
            )
            if pooled:
                pool_id = provider_rng.randrange(config.provider_pool_count)
                balanced = (
                    provider_rng.random() < config.provider_equal_preference
                )
                topology = TOPO_POOL_BALANCED if balanced else TOPO_POOL_FAILOVER
            else:
                topology = TOPO_MULTI
                offset = next_offset
                next_offset += mx_count
                if outage_rng.random() < config.persistent_outage_rate:
                    persistent = 1
                else:
                    transient = True
        elif category is DomainCategory.NOLISTING:
            topology = TOPO_NOLISTING
            mx_count = 2
            offset = next_offset
            next_offset += 2
        else:  # MISCONFIGURED
            if misc_rng.random() < config.dangling_mx_fraction:
                topology = TOPO_DANGLING
                mx_count = 1
            else:
                topology = TOPO_NO_MX
                mx_count = 0
                offset = next_offset  # the www A record
                next_offset += 1
        if transient and outage_rng.random() < config.transient_outage_rate:
            outage = outage_rng.randint(0, 1)

        categories.append(code)
        ranks.append(rank)
        topologies.append(topology)
        mx_counts.append(mx_count)
        outages.append(outage)
        persistents.append(persistent)
        pools.append(pool_id)
        offsets.append(offset)

    return ColumnarChunk(
        chunk_index=chunk_index,
        start=chunk_index * config.chunk_size,
        addr_base=network.base.value,
        category=array("B", categories),
        rank=array("I", ranks),
        topology=array("B", topologies),
        mx_count=array("B", mx_counts),
        outage_scan=array("b", outages),
        persistent=array("B", persistents),
        provider_pool=array("h", pools),
        addr_offset=array("Q", offsets),
        profile=array("B", [profile_code]) * len(categories),
    )


def chunk_records(
    chunk: ColumnarChunk, i: int, name: str
) -> List[Tuple[str, int, Optional[int]]]:
    """Reconstruct domain ``i``'s MX records from its column cells.

    Returns ``(hostname, preference, address-value-or-None)`` triples in
    generation order: ``DomainTruth.mx_hosts``, with address values.
    """
    topology = chunk.topology[i]
    count = chunk.mx_count[i]
    if topology == TOPO_NO_MX:
        return []
    if topology == TOPO_DANGLING:
        return [(f"ghost.{name}", 10, None)]
    if topology in (TOPO_POOL_FAILOVER, TOPO_POOL_BALANCED):
        pool_id = chunk.provider_pool[i]
        balanced = topology == TOPO_POOL_BALANCED
        return [
            (
                provider_pool_host(pool_id, slot),
                10 if balanced else 10 * (slot + 1),
                provider_pool_address(pool_id, slot),
            )
            for slot in range(count)
        ]
    address = chunk.addr_base + chunk.addr_offset[i]
    if topology == TOPO_SINGLE:
        return [(f"smtp.{name}", 10, address)]
    if topology == TOPO_NOLISTING:
        return [(f"smtp.{name}", 0, address), (f"smtp1.{name}", 15, address + 1)]
    # TOPO_MULTI, self-hosted
    records: List[Tuple[str, int, Optional[int]]] = [
        (f"smtp.{name}", 10, address)
    ]
    for j in range(1, count):
        records.append((f"smtp{j}.{name}", 10 * (j + 1), address + j))
    return records


def pool_apex_of(chunk: ColumnarChunk, i: int) -> Optional[str]:
    """Provider-pool zone apex of domain ``i``, or ``None`` if self-hosted."""
    pool_id = chunk.provider_pool[i]
    if pool_id < 0:
        return None
    return provider_pool_apex(pool_id)


# ----------------------------------------------------------------------
# Adoption accounting
# ----------------------------------------------------------------------
def _shape_of_key(key: Tuple[int, ...], scan_index: int) -> Tuple[Any, ...]:
    """The single-scan shape a fault-free scan observes for one key."""
    topology, _, mx_count, outage, persistent = key
    if topology == TOPO_NO_MX:
        return (0, 0, False, False)
    if topology == TOPO_DANGLING:
        return (1, 0, False, False)
    if topology == TOPO_SINGLE:
        return (1, 1, False, False)
    if topology == TOPO_NOLISTING:
        return (2, 2, False, True)
    if topology in (TOPO_POOL_FAILOVER, TOPO_POOL_BALANCED):
        return (mx_count, mx_count, True, True)
    primary_up = not persistent and outage != scan_index
    return (mx_count, mx_count, primary_up, True)


def _outcome_of_key(key: Tuple[int, ...]) -> Tuple[Any, ...]:
    """The outcome class (see :mod:`repro.scan.batch`) of one outcome key.

    A dangling domain's ghost exchange counts as a server without an
    address; a no-MX domain has neither.
    """
    topology, category, mx_count, _, _ = key
    return (
        category,
        _shape_of_key(key, 0),
        _shape_of_key(key, 1),
        mx_count,
        0 if topology == TOPO_DANGLING else mx_count,
    )


def columnar_adoption_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The fast engine's adoption shard: the object path's result, per key.

    A fault-free scan's shapes, classes and coverage figures are a pure
    function of five cells per domain, so the whole chunk collapses to
    the counts of its outcome keys ``(topology, category, mx_count,
    outage_scan, persistent)`` and :func:`repro.scan.batch.
    classify_and_tally` runs the *real* classifiers once per distinct key.
    Glue elision does not change that: those figures read the captures
    after the parallel re-resolve has restored every elided glue record,
    so elision moves only ``repaired``, counted per glue-carrying domain
    by :func:`_elided_in_chunk`.  Faulted payloads depend on which glue
    and which listeners each fault removed, per domain; those go to the
    faulted-shard replay, :func:`repro.scan.batch.batched_adoption_shard`,
    which feeds the same fold.
    """
    from .batch import batched_adoption_shard, classify_and_tally

    if payload.get("faults") is not None:
        return batched_adoption_shard(payload)

    config = population_from_params(payload["population"])
    seed = int(payload["seed"])
    plan = PopulationPlan(config, seed)
    chunk = build_columnar_chunk(plan, config, seed, int(payload["chunk"]))
    keys = list(
        zip(
            chunk.topology,
            chunk.category,
            chunk.mx_count,
            chunk.outage_scan,
            chunk.persistent,
        )
    )
    return classify_and_tally(
        (
            (_outcome_of_key(key), members, key)
            for key, members in Counter(keys).items()
        ),
        # Without faults every record the re-resolve repairs lost its glue
        # to elision alone.
        _elided_in_chunk(chunk, plan, seed, float(payload["glue_elision_rate"])),
        lambda wanted: _members_of(chunk, plan, keys, wanted),
    )


def _elided_in_chunk(
    chunk: ColumnarChunk, plan: PopulationPlan, seed: int, glue_elision_rate: float
) -> int:
    """Glue records a fault-free chunk's two captures elide.

    Without faults every non-ghost MX record carries glue, so a domain's
    glue-carrying count is its ``mx_count`` in both captures — except a
    dangling domain's ghost exchange, which carries none (and a no-MX
    domain has no records at all).  Each domain's verdicts for both
    captures come from one :func:`repro.scan.batch.elided_glue` call, the
    contract the scanner and the faulted replay share.
    """
    from .batch import elided_glue

    if glue_elision_rate <= 0:
        return 0
    elided = 0
    for i, (topology, carrying) in enumerate(zip(chunk.topology, chunk.mx_count)):
        if topology == TOPO_DANGLING or not carrying:
            continue
        name = plan.name_of(chunk.start + i)
        both = elided_glue(seed, name, {0: carrying, 1: carrying}, glue_elision_rate)
        elided += sum(both[0]) + sum(both[1])
    return elided


def _members_of(
    chunk: ColumnarChunk,
    plan: PopulationPlan,
    keys: List[Tuple[int, ...]],
    wanted: List[Tuple[int, ...]],
) -> List[str]:
    """Names of the domains whose outcome key is in ``wanted``."""
    if not wanted:
        return []
    wanted_keys = set(wanted)
    return [
        plan.name_of(chunk.start + i)
        for i, key in enumerate(keys)
        if key in wanted_keys
    ]
