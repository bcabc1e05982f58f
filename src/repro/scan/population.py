"""Synthetic internet population for the adoption measurement.

The Figure 2 experiment needs an internet's worth of mail domains whose
ground truth we control: how many use a single MX, several MXes, nolisting,
or are misconfigured — plus the realistic nuisances the paper's pipeline had
to survive (transiently-down primaries, MX answers with missing glue,
persistent primary outages indistinguishable from nolisting).

:class:`SyntheticInternet` generates such a population deterministically
from a seed and exposes exactly the two views the real study had:
authoritative DNS (via a :class:`~repro.dns.zone.ZoneStore`) and per-scan
TCP/25 reachability (via :meth:`is_listening`).

Generation is *chunked*: the domain space is split into fixed-size chunks,
each built from its own RNG sub-stream (``seed -> "chunk:<k>"``) and its own
disjoint slice of the address space.  A chunk's content therefore depends
only on ``(config, seed, chunk index)`` — never on which other chunks were
generated in the same process — which is what lets the parallel experiment
runner hand each worker a disjoint slice of the population
(:meth:`SyntheticInternet.shard`) and still merge results bit-for-bit
identical to a serial run.

Every generation draw lives in one place,
:func:`repro.scan.columnar.build_columnar_chunk`, which writes a chunk as
columns.  :class:`SyntheticInternet` draws nothing itself: it materialises
those cells as zones, addresses and listeners, so the fast engine and the
oracle scan the same population.
"""

from __future__ import annotations

import enum
import functools
import math
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..dns.zone import ZoneStore
from ..net.address import IPv4Address, IPv4Network
from ..sim.rng import RandomStream


class DomainCategory(enum.Enum):
    """Ground-truth configuration of a generated domain."""

    SINGLE_MX = "single-mx"
    MULTI_MX = "multi-mx"
    NOLISTING = "nolisting"
    MISCONFIGURED = "misconfigured"


#: Figure 2's published mix (fractions of all domains).
FIGURE2_MIX: Dict[DomainCategory, float] = {
    DomainCategory.SINGLE_MX: 0.4773,
    DomainCategory.MULTI_MX: 0.4597,
    DomainCategory.MISCONFIGURED: 0.0578,
    DomainCategory.NOLISTING: 0.0052,
}

#: Upper bound on addresses one domain can consume (multi-MX tops out at a
#: primary plus three extra exchangers); sizes each chunk's address slice.
MAX_ADDRESSES_PER_DOMAIN = 4

#: Exchangers provisioned per provider-consolidated MX pool.
POOL_HOSTS = MAX_ADDRESSES_PER_DOMAIN

#: Apex under which provider-consolidated MX pools live; pool ``k`` owns the
#: zone ``pool<k>.mx-pools.example``.
PROVIDER_APEX = "mx-pools.example"

#: Address block reserved for provider pools (RFC 2544 benchmarking range,
#: disjoint from the population's default 10/8 and the bot source ranges).
#: Pool addresses are arithmetic — pool ``k`` slot ``i`` maps to
#: ``base + k * POOL_HOSTS + i`` — so no allocator is needed to know them.
PROVIDER_ADDRESS_SPACE = "198.18.0.0/16"


def provider_pool_apex(pool_id: int) -> str:
    """Zone apex of provider pool ``pool_id``."""
    return f"pool{pool_id}.{PROVIDER_APEX}"


def provider_pool_host(pool_id: int, slot: int) -> str:
    """Hostname of exchanger ``slot`` in provider pool ``pool_id``.

    Slots are single digits (``POOL_HOSTS <= 4``), so lexicographic order of
    the hostnames equals slot order — which keeps the scanner's
    ``(preference, exchange)`` sort stable for load-balanced (equal
    preference) pools.
    """
    return f"mx{slot}.{provider_pool_apex(pool_id)}"


#: :data:`PROVIDER_ADDRESS_SPACE`, parsed once.
_PROVIDER_NETWORK = IPv4Network.parse(PROVIDER_ADDRESS_SPACE)


def provider_pool_address(pool_id: int, slot: int) -> int:
    """Integer address of exchanger ``slot`` in provider pool ``pool_id``."""
    return _PROVIDER_NETWORK.base.value + pool_id * POOL_HOSTS + slot

#: Canonical category order backing the plan's columnar representation.
#: Sorted by enum value, matching the plan's canonical layout order, so a
#: category's code is stable across processes and releases of this module.
CATEGORY_ORDER: Tuple[DomainCategory, ...] = tuple(
    sorted(DomainCategory, key=lambda c: c.value)
)

#: category -> small-int code used in the plan's ``array('B')`` column.
CATEGORY_CODE: Dict[DomainCategory, int] = {
    category: code for code, category in enumerate(CATEGORY_ORDER)
}


@dataclass
class DomainTruth:
    """Everything the generator decided about one domain."""

    name: str
    category: DomainCategory
    mx_hosts: List[Tuple[str, int, Optional[IPv4Address]]] = field(
        default_factory=list
    )  # (hostname, preference, address-or-None)
    #: Scan index (0 or 1) during which the *primary* MX is spuriously down,
    #: or None.  Models maintenance windows / transient failures.
    outage_scan: Optional[int] = None
    #: Primary down in *both* scans (a persistent failure, which the paper
    #: deliberately counts as nolisting-equivalent).
    persistent_outage: bool = False
    alexa_rank: Optional[int] = None
    #: Provider-consolidated MX pool this domain's exchangers live in, or
    #: None for self-hosted MX.  Pool domains share exchanger addresses.
    provider_pool: Optional[int] = None
    #: Pool advertised with equal preferences (load balancing) rather than
    #: the weighted fail-over layout.
    pool_balanced: bool = False

    @property
    def primary(self) -> Optional[Tuple[str, int, Optional[IPv4Address]]]:
        if not self.mx_hosts:
            return None
        return min(self.mx_hosts, key=lambda h: h[1])


@dataclass
class PopulationConfig:
    """Knobs of the generator."""

    num_domains: int = 10000
    mix: Dict[DomainCategory, float] = field(
        default_factory=lambda: dict(FIGURE2_MIX)
    )
    #: Fraction of single/multi-MX domains whose primary suffers a transient
    #: outage during exactly one of the two scans.
    transient_outage_rate: float = 0.004
    #: Fraction of multi-MX domains whose primary is persistently dead
    #: (counted as nolisting by the paper's operational definition).
    persistent_outage_rate: float = 0.0
    #: Relative weights of 1, 2 or 3 extra exchangers (2, 3 or 4 in all) on
    #: a multi-MX domain; at most ``MAX_ADDRESSES_PER_DOMAIN - 1`` weights.
    extra_mx_weights: Tuple[float, float, float] = (0.72, 0.2, 0.08)
    #: Of the misconfigured domains, fraction that have a dangling MX (the
    #: rest have no MX records at all).
    dangling_mx_fraction: float = 0.5
    #: Fraction of multi-MX domains hosted on a provider-consolidated MX
    #: pool (shared exchangers, à la the Ruohonen MX measurement) instead of
    #: self-hosted exchangers.  0 disables pools — and skips their draws, so
    #: pool-free populations stay bit-identical to pre-pool releases.
    provider_pool_fraction: float = 0.0
    #: Number of distinct provider pools domains are spread over.
    provider_pool_count: int = 8
    #: Of the pool-hosted domains, fraction whose pool is advertised with
    #: equal MX preferences (load balancing); the rest use the weighted
    #: fail-over layout (ascending preferences).
    provider_equal_preference: float = 0.3
    #: Generator mix this config was derived from (see
    #: :mod:`repro.scan.profiles`); purely descriptive metadata that the
    #: columnar pipeline records per domain.
    profile: str = "figure2"
    address_space: str = "10.0.0.0/8"
    #: Domains per generation chunk.  Part of the population's identity: the
    #: same (seed, chunk_size) yields the same domains whether chunks are
    #: built in one process or spread over many workers.
    chunk_size: int = 512

    def __post_init__(self) -> None:
        if self.num_domains < 1:
            raise ValueError("population needs at least one domain")
        # Chained comparisons are false for NaN, so this also rejects it.
        if not all(0.0 <= fraction <= 1.0 for fraction in self.mix.values()):
            raise ValueError("category mix fractions must be finite and in [0, 1]")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"category mix must sum to 1, got {total}")
        weights = self.extra_mx_weights
        if not 1 <= len(weights) < MAX_ADDRESSES_PER_DOMAIN:
            raise ValueError(
                f"extra_mx_weights needs 1 to {MAX_ADDRESSES_PER_DOMAIN - 1} "
                f"weights, got {len(weights)}"
            )
        if not all(math.isfinite(w) and w >= 0 for w in weights) or sum(weights) <= 0:
            raise ValueError(
                "extra_mx_weights must be finite, non-negative and sum above 0"
            )
        for rate in (self.transient_outage_rate, self.persistent_outage_rate,
                     self.dangling_mx_fraction, self.provider_pool_fraction,
                     self.provider_equal_preference):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("rates must lie in [0, 1]")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        network = IPv4Network.parse(self.address_space)
        if self.num_chunks * self.chunk_address_stride > network.num_addresses:
            raise ValueError(
                f"address_space {self.address_space} too small for "
                f"{self.num_domains} domains in chunks of {self.chunk_size}"
            )
        if self.provider_pool_count < 1:
            raise ValueError("provider_pool_count must be positive")
        if self.provider_pool_fraction > 0:
            provider = _PROVIDER_NETWORK
            if self.provider_pool_count * POOL_HOSTS > provider.num_addresses:
                raise ValueError(
                    f"{self.provider_pool_count} provider pools exceed the "
                    f"reserved {PROVIDER_ADDRESS_SPACE} block"
                )
            if provider.base in network or network.base in provider:
                raise ValueError(
                    "population address space overlaps the provider pool "
                    f"block {PROVIDER_ADDRESS_SPACE}"
                )

    @property
    def num_chunks(self) -> int:
        return -(-self.num_domains // self.chunk_size)

    @property
    def chunk_address_stride(self) -> int:
        """Addresses reserved per chunk (disjoint across chunks)."""
        return self.chunk_size * MAX_ADDRESSES_PER_DOMAIN


def population_params(config: PopulationConfig) -> Dict[str, object]:
    """Canonical, JSON-able description of a config (cache keys, workers)."""
    params: Dict[str, object] = {
        "num_domains": config.num_domains,
        "mix": {c.value: config.mix[c] for c in sorted(config.mix, key=lambda c: c.value)},
        "transient_outage_rate": config.transient_outage_rate,
        "persistent_outage_rate": config.persistent_outage_rate,
        "extra_mx_weights": list(config.extra_mx_weights),
        "dangling_mx_fraction": config.dangling_mx_fraction,
        "address_space": config.address_space,
        "chunk_size": config.chunk_size,
    }
    # Provider-pool and profile keys appear only when they deviate from the
    # defaults, so pool-free configs keep their pre-pool cache identity.
    if config.provider_pool_fraction > 0:
        params["provider_pool_fraction"] = config.provider_pool_fraction
        params["provider_pool_count"] = config.provider_pool_count
        params["provider_equal_preference"] = config.provider_equal_preference
    if config.profile != "figure2":
        params["profile"] = config.profile
    return params


def population_from_params(params: Dict[str, object]) -> PopulationConfig:
    """Inverse of :func:`population_params`."""
    return PopulationConfig(
        num_domains=int(params["num_domains"]),
        mix={DomainCategory(k): v for k, v in params["mix"].items()},
        transient_outage_rate=float(params["transient_outage_rate"]),
        persistent_outage_rate=float(params["persistent_outage_rate"]),
        extra_mx_weights=tuple(params["extra_mx_weights"]),
        dangling_mx_fraction=float(params["dangling_mx_fraction"]),
        provider_pool_fraction=float(params.get("provider_pool_fraction", 0.0)),
        provider_pool_count=int(params.get("provider_pool_count", 8)),
        provider_equal_preference=float(
            params.get("provider_equal_preference", 0.3)
        ),
        profile=str(params.get("profile", "figure2")),
        address_space=str(params["address_space"]),
        chunk_size=int(params["chunk_size"]),
    )


def _category_counts(
    num_domains: int, mix: Tuple[Tuple[str, float], ...]
) -> Tuple[int, ...]:
    """Apportion domains to categories with largest-remainder rounding.

    ``mix`` holds ``(category value, fraction)`` pairs; the counts come back
    indexed by category code (:data:`CATEGORY_ORDER`).
    """
    raw = {value: num_domains * fraction for value, fraction in mix}
    counts = {value: int(share) for value, share in raw.items()}
    shortfall = num_domains - sum(counts.values())
    by_remainder = sorted(raw, key=lambda value: (counts[value] - raw[value], value))
    for value in by_remainder[:shortfall]:
        counts[value] += 1
    return tuple(counts.get(category.value, 0) for category in CATEGORY_ORDER)


@functools.lru_cache(maxsize=1)
def _plan_columns(
    seed: int, num_domains: int, mix: Tuple[Tuple[str, float], ...]
) -> Tuple[bytes, memoryview, Tuple[int, ...]]:
    """Derive a plan's O(n) columns: category codes, ranks, category counts.

    Memoized on exactly what the columns depend on — not on chunk size,
    outage rates or address space — so a coordinator and every shard it
    runs in-process share one derivation, and forked workers inherit it.
    The columns are immutable (``bytes``, a read-only ``memoryview`` and a
    tuple), so no holder can change another's plan.
    """
    counts = _category_counts(num_domains, mix)
    root = RandomStream(seed, "population")
    # Codes are laid out in canonical category order, so the plan does not
    # depend on the mix dict's insertion order.  The shuffles' draws depend
    # only on the length, so populations are bit-identical to the
    # pre-columnar object layout.
    codes = array("B")
    for code, count in enumerate(counts):
        codes.extend([code] * count)
    root.split("order").shuffle(codes)
    ranks = array("I", range(1, num_domains + 1))
    root.split("ranks").shuffle(ranks)
    return codes.tobytes(), memoryview(ranks).toreadonly(), counts


class PopulationPlan:
    """Deterministic per-domain plan shared by every worker.

    Apportions domains to categories (largest-remainder, exact counts),
    shuffles the category order and the Alexa-style rank permutation — all
    O(n) in cheap scalar data.  Both the full generator and every shard
    derive the same plan from ``(config, seed)``, so chunk ``k`` means the
    same domains everywhere.

    The plan's storage is *columnar*: a ``bytes`` column of category
    codes, a read-only ``memoryview`` of ranks and a tuple of per-category
    counts.  They come from :func:`_plan_columns`, a one-entry,
    process-local memo keyed on ``(seed, num_domains, mix)``, so every
    plan of one population in a process shares them; they are read-only,
    so no plan can change another's.  :meth:`plant` moves a handful of
    ranks into this plan's own ``{index: rank}`` override, which
    :meth:`rank` and :meth:`chunk_rows` read through; no other rank
    storage exists.
    """

    def __init__(self, config: PopulationConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        mix = tuple(sorted((c.value, fraction) for c, fraction in config.mix.items()))
        self._codes, self._ranks, self._counts = _plan_columns(
            seed, config.num_domains, mix
        )
        self._planted: Dict[int, int] = {}

    @staticmethod
    def name_of(index: int) -> str:
        """The (purely positional) name of domain ``index``."""
        return f"dom{index:07d}.example"

    @staticmethod
    def index_of(name: str) -> int:
        """The index :meth:`name_of` encodes in ``name``."""
        return int(name.removeprefix("dom").removesuffix(".example"))

    @property
    def num_chunks(self) -> int:
        return self.config.num_chunks

    def rank(self, index: int) -> int:
        """Domain ``index``'s Alexa rank, after any planting."""
        return self._planted.get(index, self._ranks[index])

    def chunk_rows(self, chunk_index: int) -> List[Tuple[int, int, int]]:
        """Chunk contents as cheap ``(index, category code, rank)`` rows.

        Reads straight from the columns and the planting override, so a
        worker generating one shard builds nothing population-sized, and
        formats no names (:meth:`name_of` derives one from the index).
        """
        self._check_chunk(chunk_index)
        size = self.config.chunk_size
        start = chunk_index * size
        stop = min(start + size, self.config.num_domains)
        rows = list(
            zip(range(start, stop), self._codes[start:stop], self._ranks[start:stop])
        )
        for index, rank in self._planted.items():
            if start <= index < stop:
                rows[index - start] = (index, self._codes[index], rank)
        return rows

    def _check_chunk(self, chunk_index: int) -> None:
        if not 0 <= chunk_index < self.num_chunks:
            raise ValueError(
                f"chunk {chunk_index} out of range [0, {self.num_chunks})"
            )

    def truth_counts(self) -> Dict[DomainCategory, int]:
        """Exact category counts, precomputed at planning time."""
        return {
            category: self._counts[CATEGORY_CODE[category]]
            for category in DomainCategory
        }

    def count_in(self, category: DomainCategory) -> int:
        """Category cardinality without materializing any objects."""
        return self._counts[CATEGORY_CODE[category]]

    def plant(self, ranks: Sequence[int]) -> List[int]:
        """Plant nolisting adopters at ``ranks``; returns their indices.

        Re-plants from the shuffled ranks, replacing any earlier planting
        of this plan (see :func:`repro.scan.alexa.plant_ranks`).
        """
        from .alexa import plant_ranks  # deferred: alexa imports this module

        planted, self._planted = plant_ranks(self._codes, self._ranks, ranks)
        return planted


class SyntheticInternet:
    """A generated population of mail domains with ground truth attached.

    Parameters
    ----------
    config, seed:
        Identity of the population.
    chunks:
        Chunk indices to generate; ``None`` builds the full population.
        Use :meth:`shard` for the explicit worker-side constructor.
    """

    def __init__(
        self,
        config: PopulationConfig,
        seed: int,
        chunks: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config
        self.seed = seed
        self.zones = ZoneStore()
        self.domains: List[DomainTruth] = []
        # Ground-truth category counts, maintained during generation so
        # truth_counts() never rescans the population.  Categories are fixed
        # at generation (planting only moves ranks), so nothing here needs
        # invalidation.
        self._truth_counts: Dict[DomainCategory, int] = {
            c: 0 for c in DomainCategory
        }
        self._mail_addresses: List[IPv4Address] = []
        self._listening: Dict[IPv4Address, bool] = {}
        #: Provider pools already provisioned (zone + glue + listeners).
        self._provider_pools: set = set()
        #: address -> scan index during which it is spuriously down
        self._down_during_scan: Dict[IPv4Address, int] = {}
        self.plan = PopulationPlan(config, seed)
        if chunks is None:
            self.chunk_indices: List[int] = list(range(self.plan.num_chunks))
        else:
            self.chunk_indices = sorted(set(int(c) for c in chunks))
        for chunk_index in self.chunk_indices:
            self._generate_chunk(chunk_index)

    @classmethod
    def shard(
        cls,
        config: PopulationConfig,
        seed: int,
        chunks: Iterable[int],
    ) -> "SyntheticInternet":
        """Generate only the given chunks of the population.

        The returned internet holds exactly the domains (and zones,
        addresses, outage schedules) those chunks hold in the full
        population — a worker-sized, bit-identical slice.
        """
        return cls(config, seed, chunks=list(chunks))

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def _generate_chunk(self, chunk_index: int) -> None:
        """Materialise one chunk's columns as truths, zones and listeners."""
        from .columnar import (  # deferred: columnar imports this module
            NO_OUTAGE,
            NO_POOL,
            TOPO_NO_MX,
            TOPO_NOLISTING,
            TOPO_POOL_BALANCED,
            build_columnar_chunk,
            chunk_records,
        )

        chunk = build_columnar_chunk(self.plan, self.config, self.seed, chunk_index)
        cells = zip(
            chunk.category,
            chunk.rank,
            chunk.topology,
            chunk.outage_scan,
            chunk.persistent,
            chunk.provider_pool,
            chunk.addr_offset,
        )
        for i, (code, rank, topology, outage, persistent, pool_id, offset) in enumerate(cells):
            name = self.plan.name_of(chunk.start + i)
            category = CATEGORY_ORDER[code]
            truth = DomainTruth(name=name, category=category, alexa_rank=rank)
            pooled = pool_id != NO_POOL
            if pooled:
                # Pool exchangers live in the pool's own zone, shared by
                # every domain the pool hosts.
                self._ensure_provider_pool(pool_id)
                truth.provider_pool = pool_id
                truth.pool_balanced = topology == TOPO_POOL_BALANCED
            zone = self.zones.get_or_create(name)
            if topology == TOPO_NO_MX:
                # No MX at all, but the domain exists: an A record for www.
                zone.add_a(f"www.{name}", IPv4Address(chunk.addr_base + offset))
            for hostname, preference, value in chunk_records(chunk, i, name):
                address = None if value is None else IPv4Address(value)
                if address is not None and not pooled:
                    zone.add_a(hostname, address)
                    self._listening[address] = True
                    self._mail_addresses.append(address)
                zone.add_mx(preference, hostname)
                truth.mx_hosts.append((hostname, preference, address))
            if topology == TOPO_NOLISTING or persistent:
                # A nolisting primary refuses port 25 by design (Figure 1);
                # a persistent outage looks the same to both scans.
                self._listening[truth.primary[2]] = False
            truth.persistent_outage = bool(persistent)
            if outage != NO_OUTAGE:
                truth.outage_scan = outage
                self._down_during_scan[truth.primary[2]] = outage
            self.domains.append(truth)
            self._truth_counts[category] += 1

    def _ensure_provider_pool(self, pool_id: int) -> None:
        """Provision pool ``pool_id``'s zone, glue and listeners once."""
        if pool_id in self._provider_pools:
            return
        self._provider_pools.add(pool_id)
        zone = self.zones.get_or_create(provider_pool_apex(pool_id))
        for slot in range(POOL_HOSTS):
            address = IPv4Address(provider_pool_address(pool_id, slot))
            zone.add_a(provider_pool_host(pool_id, slot), address)
            self._listening[address] = True
            self._mail_addresses.append(address)

    # ------------------------------------------------------------------
    # Scan-time views
    # ------------------------------------------------------------------
    def is_listening(self, address: IPv4Address, scan_index: int) -> bool:
        """TCP/25 reachability of ``address`` as seen by scan ``scan_index``."""
        if not self._listening.get(address, False):
            return False
        return self._down_during_scan.get(address) != scan_index

    def all_mail_addresses(self) -> List[IPv4Address]:
        """Every address of an MX host (the scan's address space).

        In generation order: each domain's exchangers in domain order, and a
        provider pool's exchangers where the shard first uses the pool.
        """
        return list(self._mail_addresses)

    # ------------------------------------------------------------------
    # Ground truth helpers (for validating the pipeline)
    # ------------------------------------------------------------------
    def truth_counts(self) -> Dict[DomainCategory, int]:
        """Category counts, maintained incrementally during generation."""
        return dict(self._truth_counts)

    @property
    def num_domains(self) -> int:
        return len(self.domains)

    def __repr__(self) -> str:
        return (
            f"SyntheticInternet(domains={self.num_domains}, seed={self.seed})"
        )
