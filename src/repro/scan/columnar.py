"""Columnar struct-of-arrays pipeline: the fast engine.

The object path (the oracle) materializes these columns as one
:class:`~repro.scan.population.DomainTruth` (plus zones, address objects
and probe state) per domain.  At internet scale that does not fit: 10M
domains of per-domain objects is gigabytes of heap.  This module holds the
population as **parallel columns** — one small fixed-width cell per domain
for rank, ground-truth category, MX topology, outage schedule, provider
pool and generator profile — built one ~100k-domain chunk at a time, so
peak memory is bounded by the chunk size, not the population size.

Columns are NumPy arrays when NumPy is importable (and ``REPRO_NO_NUMPY``
is unset); otherwise the pure-Python :mod:`array` module provides the same
fixed-width storage with identical contents.  Every consumer treats the two
backends interchangeably — NumPy only accelerates, it never decides.

Determinism contract
--------------------
All random draws stay on the Python side (:meth:`~repro.sim.rng.
RandomStream.random_block` bulk-draws from the same Mersenne Twister state
the per-object path advances), because NumPy's generators cannot replicate
:mod:`random`'s stream.  Vectorization applies strictly *downstream* of the
draws — binning, classification and accounting — which is what keeps the
columnar engines bit-for-bit identical to the object oracle at any N.

>>> CATEGORY_TOPOLOGIES[TOPO_NOLISTING].value
'nolisting'
"""

from __future__ import annotations

import os
from array import array
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..net.address import IPv4Network
from ..sim.rng import RandomStream
from .population import (
    CATEGORY_CODE,
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    population_from_params,
    provider_pool_address,
    provider_pool_apex,
    provider_pool_host,
)
from .profiles import PROFILE_CODE


def numpy_or_none():
    """The :mod:`numpy` module, or ``None`` when unavailable or disabled.

    Checked at every call (not import time) so the ``REPRO_NO_NUMPY``
    environment variable — which CI's numpy-less leg sets — takes effect
    without reimports.  NumPy is a pure accelerator: every columnar code
    path has an :mod:`array`-module fallback with identical results.
    """
    # The one sanctioned environment read on a hot path: it only picks
    # the accelerator, and the fallback is equivalence-tested bit-identical.
    if os.environ.get("REPRO_NO_NUMPY"):  # repro: noqa DET001 - accelerator toggle
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - container always has numpy
        return None
    return numpy


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


def _column(typecode: str, values: List[int], np, dtype: Optional[str]):
    """Freeze a build list into a NumPy array or an ``array`` column."""
    if np is not None:
        return np.array(values, dtype=dtype)
    return array(typecode, values)


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

    for _, _name, category, rank in plan.chunk_rows(chunk_index):
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

        categories.append(CATEGORY_CODE[category])
        ranks.append(rank)
        topologies.append(topology)
        mx_counts.append(mx_count)
        outages.append(outage)
        persistents.append(persistent)
        pools.append(pool_id)
        offsets.append(offset)

    np = numpy_or_none()
    return ColumnarChunk(
        chunk_index=chunk_index,
        start=chunk_index * config.chunk_size,
        addr_base=network.base.value,
        category=_column("B", categories, np, "uint8"),
        rank=_column("I", ranks, np, "uint32"),
        topology=_column("B", topologies, np, "uint8"),
        mx_count=_column("B", mx_counts, np, "uint8"),
        outage_scan=_column("b", outages, np, "int8"),
        persistent=_column("B", persistents, np, "uint8"),
        provider_pool=_column("h", pools, np, "int16"),
        addr_offset=_column("Q", offsets, np, "uint64"),
        profile=_column("B", [profile_code] * len(categories), np, "uint8"),
    )


def chunk_records(
    chunk: ColumnarChunk, i: int, name: str
) -> List[Tuple[str, int, Optional[int]]]:
    """Reconstruct domain ``i``'s MX records from its column cells.

    Returns ``(hostname, preference, address-value-or-None)`` triples in
    generation order: ``DomainTruth.mx_hosts``, with address values.
    """
    topology = int(chunk.topology[i])
    count = int(chunk.mx_count[i])
    if topology == TOPO_NO_MX:
        return []
    if topology == TOPO_DANGLING:
        return [(f"ghost.{name}", 10, None)]
    if topology in (TOPO_POOL_FAILOVER, TOPO_POOL_BALANCED):
        pool_id = int(chunk.provider_pool[i])
        balanced = topology == TOPO_POOL_BALANCED
        return [
            (
                provider_pool_host(pool_id, slot),
                10 if balanced else 10 * (slot + 1),
                provider_pool_address(pool_id, slot),
            )
            for slot in range(count)
        ]
    address = chunk.addr_base + int(chunk.addr_offset[i])
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
    pool_id = int(chunk.provider_pool[i])
    if pool_id < 0:
        return None
    return provider_pool_apex(pool_id)


# ----------------------------------------------------------------------
# Vectorized adoption accounting
# ----------------------------------------------------------------------
#: Bit layout of the packed per-domain outcome key (fault-free scans only):
#: topology(3) | category(2 bits suffice, 3 used) | mx_count(3) |
#: outage+1(2) | persistent(1).
_TOPO_BITS, _CAT_SHIFT, _MXC_SHIFT, _OUT_SHIFT, _PER_SHIFT = 7, 3, 6, 9, 11


def _pack_outcome_keys(chunk: ColumnarChunk):
    """Per-domain outcome keys as one integer column (vectorized)."""
    np = numpy_or_none()
    if np is not None and hasattr(chunk.topology, "astype"):
        t = chunk.topology.astype(np.int64)
        return (
            t
            | (chunk.category.astype(np.int64) << _CAT_SHIFT)
            | (chunk.mx_count.astype(np.int64) << _MXC_SHIFT)
            | ((chunk.outage_scan.astype(np.int64) + 1) << _OUT_SHIFT)
            | (chunk.persistent.astype(np.int64) << _PER_SHIFT)
        )
    return array(
        "q",
        (
            chunk.topology[i]
            | (chunk.category[i] << _CAT_SHIFT)
            | (chunk.mx_count[i] << _MXC_SHIFT)
            | ((chunk.outage_scan[i] + 1) << _OUT_SHIFT)
            | (chunk.persistent[i] << _PER_SHIFT)
            for i in range(chunk.n)
        ),
    )


def _unique_counts(packed) -> Dict[int, int]:
    """Distinct outcome keys and their cardinalities."""
    np = numpy_or_none()
    if np is not None and hasattr(packed, "astype"):
        keys, counts = np.unique(packed, return_counts=True)
        return {int(k): int(c) for k, c in zip(keys, counts)}
    counts: Dict[int, int] = {}
    for key in packed:
        counts[key] = counts.get(key, 0) + 1
    return counts


def _shape_of_key(key: int, scan_index: int) -> Tuple[Any, ...]:
    """The single-scan shape a fault-free scan observes for one key."""
    topology = key & _TOPO_BITS
    mx_count = (key >> _MXC_SHIFT) & 7
    outage = ((key >> _OUT_SHIFT) & 3) - 1
    persistent = (key >> _PER_SHIFT) & 1
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


def _outcome_of_key(key: int) -> Tuple[Any, ...]:
    """The outcome class (see :mod:`repro.scan.batch`) of one packed key.

    A dangling domain's ghost exchange counts as a server without an
    address; a no-MX domain has neither.
    """
    topology = key & _TOPO_BITS
    mx_count = (key >> _MXC_SHIFT) & 7
    return (
        (key >> _CAT_SHIFT) & 7,
        _shape_of_key(key, 0),
        _shape_of_key(key, 1),
        mx_count,
        0 if topology == TOPO_DANGLING else mx_count,
    )


def columnar_adoption_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The fast engine's adoption shard: the object path's result, vectorized.

    A fault-free scan's shapes, classes and coverage figures are a pure
    function of the chunk's columns, so the whole chunk collapses to
    ``unique(packed keys)`` — vectorized under NumPy — and
    :func:`repro.scan.batch.classify_and_tally` runs the *real* classifiers
    once per distinct key.  Glue elision does not change that: those
    figures read the captures after the parallel re-resolve has restored
    every elided glue record, so elision moves only ``repaired``, counted
    per glue-carrying domain by :func:`_elided_in_chunk`.  Faulted payloads
    depend on which glue and which listeners each fault removed, per
    domain; those go to the faulted-shard replay,
    :func:`repro.scan.batch.batched_adoption_shard`, which feeds the same
    fold.
    """
    from .batch import batched_adoption_shard, classify_and_tally

    if payload.get("faults") is not None:
        return batched_adoption_shard(payload)

    config = population_from_params(payload["population"])
    seed = int(payload["seed"])
    plan = PopulationPlan(config, seed)
    chunk = build_columnar_chunk(plan, config, seed, int(payload["chunk"]))
    packed = _pack_outcome_keys(chunk)
    return classify_and_tally(
        (
            (_outcome_of_key(key), members, key)
            for key, members in _unique_counts(packed).items()
        ),
        # Without faults every record the re-resolve repairs lost its glue
        # to elision alone.
        _elided_in_chunk(chunk, plan, seed, float(payload["glue_elision_rate"])),
        lambda keys: _members_of(chunk, plan, packed, keys),
    )


def _elided_in_chunk(
    chunk: ColumnarChunk, plan: PopulationPlan, seed: int, glue_elision_rate: float
) -> int:
    """Glue records a fault-free chunk's two captures elide.

    Without faults every non-ghost MX record carries glue, so a domain's
    glue-carrying count is its ``mx_count`` — except a dangling domain's
    ghost exchange, which carries none (and a no-MX domain has no records
    at all).  The per-domain draws are :func:`repro.scan.batch.
    elided_glue`'s, the contract the faulted replay shares.
    """
    from .batch import elided_glue

    if glue_elision_rate <= 0:
        return 0
    elision_root = RandomStream(seed, "adoption-scan")
    elided = 0
    for i, (topology, carrying) in enumerate(
        zip(chunk.topology.tolist(), chunk.mx_count.tolist())
    ):
        if topology == TOPO_DANGLING or not carrying:
            continue
        name = plan.name_of(chunk.start + i)
        for scan_index in (0, 1):
            elided += elided_glue(
                elision_root, scan_index, name, carrying, glue_elision_rate
            )
    return elided


def _members_of(
    chunk: ColumnarChunk, plan: PopulationPlan, packed, keys: List[int]
) -> List[str]:
    """Names of the domains whose outcome key is in ``keys``."""
    if not keys:
        return []
    np = numpy_or_none()
    names: List[str] = []
    if np is not None and hasattr(packed, "astype"):
        mask = np.isin(packed, np.array(keys, dtype=np.int64))
        for i in np.nonzero(mask)[0]:
            names.append(plan.name_of(chunk.start + int(i)))
        return names
    wanted = set(keys)
    for i, key in enumerate(packed):
        if key in wanted:
            names.append(plan.name_of(chunk.start + i))
    return names


# ----------------------------------------------------------------------
# Streaming deployment columns (internet-scale experiment)
# ----------------------------------------------------------------------
#: Deployment codes in the internet-scale columns (the "policy fingerprint
#: id" column: each code maps to one connection-policy fingerprint).
DEPLOY_PLAIN = 0
DEPLOY_NOLISTED = 1
DEPLOY_GREYLISTED = 2


def stream_deployment_chunks(
    deploy_rng: RandomStream,
    num_domains: int,
    nolisting_rate: float,
    greylisting_rate: float,
    chunk_domains: int = 100_000,
) -> Iterator[Tuple[int, Any]]:
    """Stream the receiver internet's deployment column in bounded chunks.

    Draws continue ``deploy_rng``'s single sequential stream exactly as the
    object path's per-domain ``random()`` calls do (``random_block`` is
    draw-for-draw identical), then bins each chunk into deployment codes —
    vectorized under NumPy.  Yields ``(start_index, codes)``; the caller
    decides what to retain, so peak memory is one chunk regardless of
    ``num_domains``.
    """
    if chunk_domains < 1:
        raise ValueError("chunk_domains must be positive")
    np = numpy_or_none()
    boundary = nolisting_rate + greylisting_rate
    for start in range(0, num_domains, chunk_domains):
        n = min(chunk_domains, num_domains - start)
        block = deploy_rng.random_block(n)
        if np is not None:
            rolls = np.array(block)
            codes = np.where(
                rolls < nolisting_rate,
                DEPLOY_NOLISTED,
                np.where(rolls < boundary, DEPLOY_GREYLISTED, DEPLOY_PLAIN),
            ).astype(np.uint8)
        else:
            codes = array(
                "B",
                (
                    DEPLOY_NOLISTED
                    if roll < nolisting_rate
                    else (DEPLOY_GREYLISTED if roll < boundary else DEPLOY_PLAIN)
                    for roll in block
                ),
            )
        yield start, codes
