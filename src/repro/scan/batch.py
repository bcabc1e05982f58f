"""Equivalence-class batch engine for the adoption scan (paper §IV.A).

The per-object shard task builds an authoritative DNS zone, a resolver and
a banner-grab probe for every domain — then throws almost all of it away,
because classification only consumes a handful of bits per domain: the MX
topology shape, which records arrived without glue, and which addresses
answered on port 25.  This module computes exactly those bits directly
from the deterministic draw streams, files every domain of a chunk under
its outcome-determining *class key*

    (ground-truth category, scan-0 shape, scan-1 shape,
     coverage and repair contributions)

and runs the **real** classifiers (:func:`repro.scan.detect.
classify_single_scan` / :func:`~repro.scan.detect.classify_two_scans`)
once per distinct shape on a synthesized representative observation.  The
result dict is bit-for-bit identical to
:func:`repro.runner.shards.adoption_shard_task` for the same payload — a
property the integration suite asserts over seeds, fault plans and
planted populations.

Why the replay is sound
-----------------------
Every random decision the object path makes is either

* a *generation* draw from ``seed -> "population" -> "chunk:<k>"`` in a
  fixed per-domain order (replayed here verbatim, in lockstep with
  :meth:`~repro.scan.population.SyntheticInternet._generate_chunk`),
* a *fault* draw keyed purely by ``(fault seed, kind, epoch, entity
  label)`` (stateless: skipping draws the verdict never consumes cannot
  perturb any other draw), or
* a *glue-elision* draw from the per-domain stream
  ``"elision:<scan>:<domain>"`` consumed once per glue-carrying record in
  record order (replayed verbatim).

Addresses are arithmetic, not allocated: chunk ``k`` owns the address
slice ``base + k * stride`` and hands addresses out sequentially, so the
replay tracks a counter instead of an :class:`~repro.net.address.
AddressPool`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..faults.model import FaultPlan, fault_from_params
from ..net.address import IPv4Address
from ..sim.batch import BatchCounters, EquivalenceClassIndex
from ..sim.rng import RandomStream
from .datasets import DomainObservation, MXObservation, SMTPScanDataset
from .detect import (
    DomainClass,
    SingleScanVerdict,
    classify_single_scan,
    classify_two_scans,
)
from .population import (
    CATEGORY_ORDER,
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    population_from_params,
)

#: One MX record of a replayed domain: hostname, preference, address value
#: (``None`` for a dangling/ghost exchange) — mirrors ``DomainTruth.mx_hosts``.
_Record = Tuple[str, int, Optional[int]]

#: A single-scan shape: either ``("mxfault", kind)`` or
#: ``(n_records, n_resolved, primary_up, secondary_up)``.
_Shape = Tuple[Any, ...]


class _DomainSpec:
    """The replayed ground truth of one domain (no zones, no pools)."""

    __slots__ = (
        "name",
        "category",
        "records",
        "outage_scan",
        "persistent",
        "pool_apex",
    )

    def __init__(
        self,
        name: str,
        category: DomainCategory,
        records: List[_Record],
        outage_scan: Optional[int],
        persistent: bool,
        pool_apex: Optional[str] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.records = records
        self.outage_scan = outage_scan
        self.persistent = persistent
        self.pool_apex = pool_apex


def _replay_chunk(
    plan: PopulationPlan, config: PopulationConfig, seed: int, chunk_index: int
) -> List[_DomainSpec]:
    """Replay one chunk's generation draws without building the world.

    The columnar module owns the single replay implementation
    (:func:`repro.scan.columnar.build_columnar_chunk`, draw-for-draw
    lockstep with :meth:`~repro.scan.population.SyntheticInternet.
    _generate_chunk`); this wrapper reconstitutes its columns as the
    per-domain specs the shape computation consumes.
    """
    from .columnar import (
        NO_OUTAGE,
        build_columnar_chunk,
        chunk_records,
        pool_apex_of,
    )

    chunk = build_columnar_chunk(plan, config, seed, chunk_index)
    specs: List[_DomainSpec] = []
    for i in range(chunk.n):
        name = plan.name_of(chunk.start + i)
        outage = int(chunk.outage_scan[i])
        specs.append(
            _DomainSpec(
                name=name,
                category=CATEGORY_ORDER[int(chunk.category[i])],
                records=chunk_records(chunk, i, name),
                outage_scan=None if outage == NO_OUTAGE else outage,
                persistent=bool(chunk.persistent[i]),
                pool_apex=pool_apex_of(chunk, i),
            )
        )
    return specs


def elided_glue(
    elision_root: RandomStream,
    scan_index: int,
    name: str,
    carrying: int,
    glue_elision_rate: float,
) -> int:
    """How many of a domain's ``carrying`` glue records one capture drops.

    The draw contract of :meth:`~repro.scan.scanner.DNSScanner.
    iter_observations`: one uniform per glue-carrying MX record, in record
    order, from the per-domain stream ``"elision:<scan>:<name>"``; a draw
    below the rate elides that record's glue.  Only the count matters
    downstream (the parallel re-resolve repairs every elided record), and
    an answer carrying no glue consumes no draws, so its stream is never
    seeded.
    """
    if carrying == 0:
        return 0
    stream = elision_root.split(f"elision:{scan_index}:{name}")
    return sum(1 for draw in stream.random_block(carrying) if draw < glue_elision_rate)


def _scan_shape(
    spec: _DomainSpec,
    scan_index: int,
    faults: Optional[FaultPlan],
    elision_root: Optional[RandomStream],
    glue_elision_rate: float,
) -> Tuple[_Shape, int]:
    """One domain's single-scan shape plus its repaired-record count."""
    if faults is not None:
        kind = faults.dns_fault(spec.name, scan_index)
        if kind is None and faults.zone_lame(spec.name):
            kind = "servfail"
        if kind is not None:
            return ("mxfault", kind), 0

    # How many records' glue reaches the capture: A-query faults remove
    # some, then the scanner's elision stream drops more.  Provider pool
    # exchangers live in their own zone, so their glue A query can
    # additionally hit that zone's lame delegation — a fault the domain's
    # own MX query never sees.  Ghost exchanges never carry any glue.
    pool_lame = (
        faults is not None
        and spec.pool_apex is not None
        and faults.zone_lame(spec.pool_apex)
    )
    carrying = 0
    if not pool_lame:
        for hostname, _, address in spec.records:
            if address is None:
                continue
            if faults is not None and faults.dns_fault(hostname, scan_index):
                continue
            carrying += 1

    n_records = len(spec.records)
    # The parallel re-resolve repairs every non-ghost record against a
    # healthy resolver, so post-repair resolution == "has an A record",
    # and every resolvable record that lacked glue counts as repaired.
    n_resolved = sum(1 for (_, _, address) in spec.records if address is not None)
    repaired = n_resolved - carrying
    if elision_root is not None:
        repaired += elided_glue(
            elision_root, scan_index, spec.name, carrying, glue_elision_rate
        )

    if n_records < 2 or n_resolved < 2:
        # ONE_MX / MISCONFIGURED shapes never consult the banner grab.
        return (n_records, n_resolved, False, False), repaired

    primary_up = _address_up(spec, spec.records[0][2], scan_index, faults, True)
    secondary_up = any(
        _address_up(spec, address, scan_index, faults, False)
        for (_, _, address) in spec.records[1:]
    )
    return (n_records, n_resolved, primary_up, secondary_up), repaired


def _address_up(
    spec: _DomainSpec,
    address: Optional[int],
    scan_index: int,
    faults: Optional[FaultPlan],
    is_primary: bool,
) -> bool:
    """Is this MX address in the scan's listening set?"""
    if address is None:
        return False
    if is_primary:
        if spec.category is DomainCategory.NOLISTING:
            return False  # primary never listens — that is nolisting
        if spec.persistent or spec.outage_scan == scan_index:
            return False
    if faults is not None and faults.smtp_down(
        str(IPv4Address(address)), scan_index
    ):
        return False
    return True


def _shape_verdict(shape: _Shape) -> SingleScanVerdict:
    """Classify one shape by driving the *real* single-scan classifier.

    A representative observation (and, when the shape consults it, a
    representative banner-grab set) is synthesized so the decision runs
    through :func:`classify_single_scan` unmodified — the batch engine
    multiplies the classifier, it never reimplements it.
    """
    observation = DomainObservation(domain="representative.example")
    smtp = SMTPScanDataset(scan_index=0)
    if shape[0] == "mxfault":
        if shape[1] == "timeout":
            observation.timeout = True
        else:
            observation.servfail = True
        return classify_single_scan(observation, smtp)
    n_records, n_resolved, primary_up, secondary_up = shape
    for i in range(n_records):
        resolved = i < n_resolved
        address = IPv4Address(0x7F000001 + i) if resolved else None
        observation.mx.append(
            MXObservation(
                preference=10 * (i + 1),
                exchange=f"mx{i}.representative.example",
                address=address,
            )
        )
    if n_resolved >= 1 and primary_up:
        smtp.add(IPv4Address(0x7F000001))
    if n_resolved >= 2 and secondary_up:
        smtp.add(IPv4Address(0x7F000002))
    return classify_single_scan(observation, smtp)


def batched_adoption_shard(
    payload: Dict[str, Any], counters: Optional[BatchCounters] = None
) -> Dict[str, Any]:
    """Batched equivalent of :func:`repro.runner.shards.adoption_shard_task`.

    Accepts the same payload (minus the ``engine`` discriminator) and
    returns the identical result dict.  ``counters``, when given, is
    filled with the run's collapse accounting.
    """
    from ..core.adoption import _TRUTH_TO_CLASS

    config = population_from_params(payload["population"])
    seed = int(payload["seed"])
    chunk_index = int(payload["chunk"])
    glue_elision_rate = float(payload["glue_elision_rate"])
    faults = None
    if payload.get("faults") is not None:
        faults = FaultPlan(fault_from_params(payload["faults"]))

    plan = PopulationPlan(config, seed)
    specs = _replay_chunk(plan, config, seed, chunk_index)
    elision_root = (
        RandomStream(seed, "adoption-scan") if glue_elision_rate > 0 else None
    )

    index: EquivalenceClassIndex[Tuple[Any, ...], str] = EquivalenceClassIndex()
    for spec in specs:
        shape_a, repaired_a = _scan_shape(
            spec, 0, faults, elision_root, glue_elision_rate
        )
        shape_b, repaired_b = _scan_shape(
            spec, 1, faults, elision_root, glue_elision_rate
        )
        # Coverage figures come from the scan-0 capture only; a failed MX
        # query contributes an empty observation.
        if shape_a[0] == "mxfault":
            servers = addresses = 0
        else:
            servers = len(spec.records)
            addresses = sum(
                1 for (_, _, address) in spec.records if address is not None
            )
        key = (
            spec.category.value,
            shape_a,
            shape_b,
            servers,
            addresses,
            repaired_a + repaired_b,
        )
        index.add(key, spec.name)

    shape_memo: Dict[_Shape, SingleScanVerdict] = {}
    pair_memo: Dict[
        Tuple[SingleScanVerdict, SingleScanVerdict], DomainClass
    ] = {}
    representative_runs = 0

    def verdict_of(shape: _Shape) -> SingleScanVerdict:
        nonlocal representative_runs
        verdict = shape_memo.get(shape)
        if verdict is None:
            verdict = _shape_verdict(shape)
            shape_memo[shape] = verdict
            representative_runs += 1
        return verdict

    counts = {c: 0 for c in DomainClass}
    total = flapped = servers_covered = addresses_covered = repaired = 0
    confusion = {"correct": 0, "wrong": 0}
    nolisting_domains: List[str] = []

    for key, members in index.classes():
        category_value, shape_a, shape_b, servers, addresses, rep = key
        cardinality = len(members)
        verdict_a = verdict_of(shape_a)
        verdict_b = verdict_of(shape_b)
        pair = (verdict_a, verdict_b)
        domain_class = pair_memo.get(pair)
        if domain_class is None:
            domain_class = classify_two_scans(
                "representative.example", verdict_a, verdict_b
            ).domain_class
            pair_memo[pair] = domain_class
            representative_runs += 1
        total += cardinality
        counts[domain_class] += cardinality
        if verdict_a != verdict_b:
            flapped += cardinality
        servers_covered += servers * cardinality
        addresses_covered += addresses * cardinality
        repaired += rep * cardinality
        truth_class = _TRUTH_TO_CLASS[DomainCategory(category_value)]
        if domain_class is truth_class:
            confusion["correct"] += cardinality
        else:
            confusion["wrong"] += cardinality
        if domain_class is DomainClass.NOLISTING:
            nolisting_domains.extend(members)

    if counters is not None:
        counters.members += index.num_members
        counters.classes += index.num_classes
        counters.representative_runs += representative_runs

    return {
        "total": total,
        "counts": {c.value: counts.get(c, 0) for c in DomainClass},
        "flapped": flapped,
        "servers": servers_covered,
        "addresses": addresses_covered,
        "repaired": repaired,
        "confusion": confusion,
        "nolisting_domains": sorted(nolisting_domains),
    }
