"""Outcome-class fold and faulted-shard replay for the adoption scan (§IV.A).

The per-object shard task (the oracle) builds an authoritative DNS zone, a
resolver and a banner-grab probe for every domain — then throws almost all
of it away, because classification only consumes a handful of bits per
domain: the MX topology shape, which records arrived without glue, and
which addresses answered on port 25.  The fast engine files every domain of
a chunk under its outcome-determining *class*

    (ground-truth category, scan-0 shape, scan-1 shape,
     scan-0 server and address coverage)

and :func:`classify_and_tally` runs the **real** classifiers
(:func:`repro.scan.detect.classify_single_scan` /
:func:`~repro.scan.detect.classify_two_scans`) once per distinct shape on a
synthesized representative observation, weighting every tally by the
class's size.  Both producers of classes share that one fold:

* :func:`repro.scan.columnar.columnar_adoption_shard` counts a fault-free
  chunk's classes by outcome key, five column cells per domain;
* :func:`batched_adoption_shard` (this module) replays a *faulted* chunk
  domain by domain from the same :class:`~repro.scan.columnar.ColumnarChunk`
  cells.  Fault draws are keyed per entity, so which glue and which
  listeners a fault removes is known only domain by domain.

The result dict is bit-for-bit identical to the object path's for the same
payload — a property the engine-equivalence suite asserts over seeds, fault
plans and planted populations.

Why the replay is sound
-----------------------
Every random decision the object path makes is either

* a *generation* draw from ``seed -> "population" -> "chunk:<k>"``.  The
  object path makes none itself: it materialises its population from the
  cells :func:`~repro.scan.columnar.build_columnar_chunk` writes, the same
  cells this replay reads,
* a *fault* draw keyed purely by ``(fault seed, kind, epoch, entity
  label)`` (stateless: skipping draws the verdict never consumes cannot
  perturb any other draw), or
* a *glue-elision* draw keyed by ``(seed, "elision:<domain>")``, one
  word per glue-carrying record in record order (:func:`elided_glue`,
  which the object scanner calls too).

Addresses are arithmetic, not allocated: chunk ``k`` owns the address
slice ``base + k * stride`` and hands addresses out sequentially, so the
columns store an offset, which both paths add to the slice's base.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from ..faults.model import FaultPlan, fault_from_params
from ..net.address import IPv4Address
from ..sim.rng import keyed_words
from .columnar import (
    TOPO_NOLISTING,
    ColumnarChunk,
    build_columnar_chunk,
    chunk_records,
    pool_apex_of,
)
from .datasets import DomainObservation, MXObservation, SMTPScanDataset
from .detect import (
    DomainClass,
    SingleScanVerdict,
    classify_single_scan,
    classify_two_scans,
)
from .population import (
    CATEGORY_ORDER,
    MAX_ADDRESSES_PER_DOMAIN,
    PopulationPlan,
    population_from_params,
)

#: One MX record of a replayed domain: hostname, preference, address value
#: (``None`` for a dangling/ghost exchange), as in ``DomainTruth.mx_hosts``.
_Record = Tuple[str, int, Optional[int]]

#: A single-scan shape: either ``("mxfault", kind)`` or
#: ``(n_records, n_resolved, primary_up, secondary_up)``.
_Shape = Tuple[Any, ...]

#: An outcome class: ground-truth category code, the scan-0 and scan-1
#: shapes, and the scan-0 capture's server and address counts.
Outcome = Tuple[int, _Shape, _Shape, int, int]

_Tag = TypeVar("_Tag")


def elided_glue(
    seed: int,
    name: str,
    carrying: Dict[int, int],
    glue_elision_rate: float,
) -> Dict[int, List[bool]]:
    """Which glue records a domain's captures drop.

    ``carrying`` maps a capture's scan index to how many of the domain's
    MX records arrive with glue in it; the result maps the same index to
    one verdict per such record, in record order, true where the capture
    drops that record's glue.  This is the draw contract of
    :meth:`~repro.scan.scanner.DNSScanner.iter_observations`, the
    faulted-shard replay and the columnar count: one keyed draw per
    domain (:func:`~repro.sim.rng.keyed_words` under
    ``"elision:<name>"``), whose word ``4 * s + r`` decides capture
    ``s``'s ``r``-th glue-carrying record.  An answer holds at most
    :data:`~repro.scan.population.MAX_ADDRESSES_PER_DOMAIN` records, so
    the eight words cover scans 0 and 1; anything more raises
    :class:`ValueError` rather than reuse another capture's words.
    """
    words = keyed_words(seed, f"elision:{name}")
    limit = glue_elision_rate * 2**53
    dropped = {}
    for scan_index, count in carrying.items():
        if scan_index not in (0, 1) or count > MAX_ADDRESSES_PER_DOMAIN:
            raise ValueError(
                f"{name}: no elision draws for {count} glue records in "
                f"scan {scan_index}"
            )
        first = MAX_ADDRESSES_PER_DOMAIN * scan_index
        dropped[scan_index] = [
            word >> 11 < limit for word in words[first:first + count]
        ]
    return dropped


def _shape_verdict(shape: _Shape) -> SingleScanVerdict:
    """Classify one shape by driving the *real* single-scan classifier.

    A representative observation (and, when the shape consults it, a
    representative banner-grab set) is synthesized so the decision runs
    through :func:`classify_single_scan` unmodified — the fold multiplies
    the classifier, it never reimplements it.
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


def classify_and_tally(
    classes: Iterable[Tuple[Outcome, int, _Tag]],
    repaired: int,
    name_members: Callable[[List[_Tag]], Iterable[str]],
) -> Dict[str, Any]:
    """One shard's result dict, folded from its outcome classes.

    ``classes`` yields ``(outcome, cardinality, tag)``.  The real
    classifiers run once per distinct shape and once per distinct verdict
    pair, and every tally is weighted by the class's cardinality.
    ``repaired`` is the shard's repaired-record count, which no class
    determines, and ``name_members`` turns the tags of the classes the
    pipeline verdicts NOLISTING into their domains' names.
    """
    from ..core.adoption import _TRUTH_TO_CLASS

    verdicts: Dict[_Shape, SingleScanVerdict] = {}
    pair_classes: Dict[Tuple[SingleScanVerdict, SingleScanVerdict], DomainClass] = {}
    counts = {c: 0 for c in DomainClass}
    total = flapped = servers_covered = addresses_covered = 0
    confusion = {"correct": 0, "wrong": 0}
    nolisting_tags: List[_Tag] = []

    for (category, shape_a, shape_b, servers, addresses), members, tag in classes:
        for shape in (shape_a, shape_b):
            if shape not in verdicts:
                verdicts[shape] = _shape_verdict(shape)
        pair = (verdicts[shape_a], verdicts[shape_b])
        domain_class = pair_classes.get(pair)
        if domain_class is None:
            domain_class = classify_two_scans("representative.example", *pair).domain_class
            pair_classes[pair] = domain_class
        total += members
        counts[domain_class] += members
        if pair[0] != pair[1]:
            flapped += members
        servers_covered += servers * members
        addresses_covered += addresses * members
        if domain_class is _TRUTH_TO_CLASS[CATEGORY_ORDER[category]]:
            confusion["correct"] += members
        else:
            confusion["wrong"] += members
        if domain_class is DomainClass.NOLISTING:
            nolisting_tags.append(tag)

    return {
        "total": total,
        "counts": {c.value: counts[c] for c in DomainClass},
        "flapped": flapped,
        "servers": servers_covered,
        "addresses": addresses_covered,
        "repaired": repaired,
        "confusion": confusion,
        "nolisting_domains": sorted(name_members(nolisting_tags)),
    }


def _scan_shape(
    chunk: ColumnarChunk,
    i: int,
    name: str,
    records: List[_Record],
    scan_index: int,
    faults: FaultPlan,
    seed: int,
    glue_elision_rate: float,
) -> Tuple[_Shape, int]:
    """Domain ``i``'s single-scan shape plus its repaired-record count."""
    kind = faults.dns_fault(name, scan_index)
    if kind is None and faults.zone_lame(name):
        kind = "servfail"
    if kind is not None:
        return ("mxfault", kind), 0

    # How many records' glue reaches the capture: A-query faults remove
    # some, then the scanner's elision stream drops more.  Provider pool
    # exchangers live in their own zone, so their glue A query can
    # additionally hit that zone's lame delegation — a fault the domain's
    # own MX query never sees.  Ghost exchanges never carry any glue.
    pool_apex = pool_apex_of(chunk, i)
    carrying = 0
    if pool_apex is None or not faults.zone_lame(pool_apex):
        for hostname, _, address in records:
            if address is not None and not faults.dns_fault(hostname, scan_index):
                carrying += 1

    n_records = len(records)
    # The parallel re-resolve repairs every non-ghost record against a
    # healthy resolver, so post-repair resolution == "has an A record",
    # and every resolvable record that lacked glue counts as repaired.
    n_resolved = sum(1 for (_, _, address) in records if address is not None)
    repaired = n_resolved - carrying
    if carrying and glue_elision_rate > 0:
        dropped = elided_glue(seed, name, {scan_index: carrying}, glue_elision_rate)
        repaired += sum(dropped[scan_index])

    if n_records < 2 or n_resolved < 2:
        # ONE_MX / MISCONFIGURED shapes never consult the banner grab.
        return (n_records, n_resolved, False, False), repaired

    # A nolisting primary never listens; a live primary can still sit in
    # its outage window.
    primary_live = not (
        chunk.topology[i] == TOPO_NOLISTING
        or chunk.persistent[i]
        or chunk.outage_scan[i] == scan_index
    )
    primary_up = primary_live and _listening(records[0][2], scan_index, faults)
    secondary_up = any(
        _listening(address, scan_index, faults) for (_, _, address) in records[1:]
    )
    return (n_records, n_resolved, primary_up, secondary_up), repaired


def _listening(address: Optional[int], scan_index: int, faults: FaultPlan) -> bool:
    """Is this MX address in the scan's listening set, faults allowing?"""
    return address is not None and not faults.smtp_down(
        str(IPv4Address(address)), scan_index
    )


def batched_adoption_shard(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The faulted-shard replay behind the columnar engine.

    Accepts an adoption shard payload that carries ``faults`` and returns
    the result dict :func:`repro.runner.shards.adoption_shard_task`'s
    object path computes for it.  Each domain's two single-scan shapes are
    replayed from the chunk's column cells under the payload's fault plan,
    then :func:`classify_and_tally` folds the classes.
    """
    config = population_from_params(payload["population"])
    seed = int(payload["seed"])
    glue_elision_rate = float(payload["glue_elision_rate"])
    faults = FaultPlan(fault_from_params(payload["faults"]))

    plan = PopulationPlan(config, seed)
    chunk = build_columnar_chunk(plan, config, seed, int(payload["chunk"]))

    classes: Dict[Outcome, List[str]] = {}
    repaired = 0
    for i in range(chunk.n):
        name = plan.name_of(chunk.start + i)
        records = chunk_records(chunk, i, name)
        shape_a, repaired_a = _scan_shape(
            chunk, i, name, records, 0, faults, seed, glue_elision_rate
        )
        shape_b, repaired_b = _scan_shape(
            chunk, i, name, records, 1, faults, seed, glue_elision_rate
        )
        repaired += repaired_a + repaired_b
        # Coverage figures come from the scan-0 capture only; a failed MX
        # query contributes an empty observation.
        if shape_a[0] == "mxfault":
            servers = addresses = 0
        else:
            servers = len(records)
            addresses = sum(1 for (_, _, address) in records if address is not None)
        outcome = (chunk.category[i], shape_a, shape_b, servers, addresses)
        classes.setdefault(outcome, []).append(name)

    return classify_and_tally(
        ((outcome, len(names), names) for outcome, names in classes.items()),
        repaired,
        lambda tags: [name for names in tags for name in names],
    )
