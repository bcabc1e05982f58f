"""The worldwide nolisting-adoption measurement (paper §IV.A, Figure 2).

Generates a synthetic internet with the Figure 2 ground-truth mix, runs the
two-months-apart DNS + SMTP scan pair over it, pushes the captures through
the three-step detection pipeline, and cross-checks popular-domain adoption
— end-to-end, exactly the dataflow of the paper's measurement.

The measurement is sharded: the domain space is split into fixed-size
chunks (see :class:`~repro.scan.population.PopulationPlan`), each chunk is
generated, scanned and classified independently — by this process when
``workers=1``, by a process pool otherwise — and the per-chunk tallies are
merged in chunk order.  Because every per-domain random draw depends only
on ``(seed, chunk)``, the merged result is bit-for-bit identical whatever
the worker count.  Passing a :class:`~repro.runner.cache.ResultCache`
memoizes completed chunks on disk, so repeated runs (sweeps, sensitivity
harnesses) skip everything already measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..faults.model import FaultConfig, fault_params
from ..runner.cache import ResultCache
from ..runner.pool import run_tasks
from ..scan.alexa import (
    PAPER_NOLISTING_RANKS,
    PopularityCrossCheck,
    crosscheck_from_ranks,
)
from ..scan.detect import AdoptionSummary, DomainClass
from ..scan.population import (
    DomainCategory,
    PopulationConfig,
    PopulationPlan,
    population_params,
)


@dataclass
class AdoptionExperimentResult:
    """Measured Figure 2 plus validation hooks."""

    summary: AdoptionSummary
    crosscheck: PopularityCrossCheck
    ground_truth: Dict[DomainCategory, int]
    repaired_mx_records: int
    #: classification accuracy against ground truth, per class
    confusion: Dict[str, int]

    def measured_percentages(self) -> Dict[DomainClass, float]:
        return self.summary.percentages()


#: Map from generator ground truth to the expected pipeline verdict.
_TRUTH_TO_CLASS = {
    DomainCategory.SINGLE_MX: DomainClass.ONE_MX,
    DomainCategory.MULTI_MX: DomainClass.MULTI_MX_NO_NOLISTING,
    DomainCategory.NOLISTING: DomainClass.NOLISTING,
    DomainCategory.MISCONFIGURED: DomainClass.DNS_MISCONFIGURED,
}


def run_adoption_experiment(
    num_domains: int = 10000,
    seed: int = 42,
    glue_elision_rate: float = 0.1,
    transient_outage_rate: float = 0.004,
    plant_popular: bool = True,
    config: Optional[PopulationConfig] = None,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    fault_rate: float = 0.0,
    fault_seed: Optional[int] = None,
    engine: str = "columnar",
) -> AdoptionExperimentResult:
    """Run the full adoption measurement end to end.

    ``workers`` fans the population's chunks over that many processes
    (``0`` means one per CPU); results are identical for any value.
    ``cache`` memoizes completed chunks on disk.

    ``engine`` selects the shard implementation.  ``"columnar"``, the
    default, holds each chunk as parallel fixed-width columns and
    classifies a fault-free chunk once per distinct outcome key, glue
    elision included; faulted chunks are replayed domain by domain from
    the same columns (see :mod:`repro.scan.columnar` and
    :mod:`repro.scan.batch`).
    ``"object"`` is the oracle: it builds and scans the full synthetic
    world per chunk.  Results are bit-identical either way.

    ``fault_rate`` turns on measurement-infrastructure faults: each scan
    additionally suffers host outages, port-25 flaps and DNS
    SERVFAIL/timeout bursts at that per-entity rate (see
    :meth:`~repro.faults.model.FaultConfig.uniform`), drawn independently
    per scan from ``fault_seed`` (default: ``seed``).  This exercises the
    transient failures the paper's two-scan protocol exists to filter.
    """
    if engine not in ("object", "columnar"):
        raise ValueError(f"unknown adoption engine {engine!r}")
    # Checked once here: the columnar engine never builds a DNSScanner.
    if not 0.0 <= glue_elision_rate <= 1.0:  # NaN fails both comparisons
        raise ValueError(
            f"glue_elision_rate must lie in [0, 1], got {glue_elision_rate}"
        )
    if config is None:
        config = PopulationConfig(
            num_domains=num_domains,
            transient_outage_rate=transient_outage_rate,
        )
    plan = PopulationPlan(config, seed)
    if plant_popular:
        # Plant only when there are enough adopters to move and every
        # target rank exists (ranks run 1..num_domains).
        needed = len(PAPER_NOLISTING_RANKS)
        if (
            plan.count_in(DomainCategory.NOLISTING) >= needed
            and max(PAPER_NOLISTING_RANKS) <= config.num_domains
        ):
            plan.plant(PAPER_NOLISTING_RANKS)

    from ..runner.shards import adoption_shard_task

    faults = None
    if fault_rate > 0.0:
        faults = fault_params(
            FaultConfig.uniform(
                fault_rate, seed=seed if fault_seed is None else fault_seed
            )
        )

    params = population_params(config)
    payloads = [
        {
            "population": params,
            "seed": seed,
            "glue_elision_rate": glue_elision_rate,
            "chunk": chunk,
            # Only present when enabled, so fault-free runs keep hitting
            # cache entries written before faults existed.
            **({"faults": faults} if faults is not None else {}),
            # Same reasoning: default-engine payloads keep the key the
            # object engine's payloads had while it was the default.
            **({"engine": engine} if engine != "columnar" else {}),
        }
        for chunk in range(plan.num_chunks)
    ]
    shard_results = run_tasks(
        adoption_shard_task,
        payloads,
        workers=workers,
        cache=cache,
        experiment="adoption-shard",
    )
    return _merge_adoption_shards(plan, shard_results)


def _merge_adoption_shards(
    plan: PopulationPlan, shard_results: List[Dict]
) -> AdoptionExperimentResult:
    """Fold per-chunk tallies into the experiment result, in chunk order."""
    counts = {c: 0 for c in DomainClass}
    total = flapped = servers = addresses = repaired = 0
    confusion = {"correct": 0, "wrong": 0}
    nolisting_domains: List[str] = []
    for shard in shard_results:
        total += shard["total"]
        flapped += shard["flapped"]
        servers += shard["servers"]
        addresses += shard["addresses"]
        repaired += shard["repaired"]
        for domain_class in DomainClass:
            counts[domain_class] += shard["counts"][domain_class.value]
        confusion["correct"] += shard["confusion"]["correct"]
        confusion["wrong"] += shard["confusion"]["wrong"]
        nolisting_domains.extend(shard["nolisting_domains"])

    summary = AdoptionSummary(
        total_domains=total,
        counts=counts,
        flapped=flapped,
        servers_covered=servers,
        addresses_covered=addresses,
    )
    rank_of = plan.rank_of()
    crosscheck = crosscheck_from_ranks(
        [
            rank_of[name]
            for name in nolisting_domains
            if rank_of.get(name)
        ]
    )
    return AdoptionExperimentResult(
        summary=summary,
        crosscheck=crosscheck,
        ground_truth=plan.truth_counts(),
        repaired_mx_records=repaired,
        confusion=confusion,
    )


def single_scan_false_positives(
    num_domains: int = 10000,
    seed: int = 42,
    transient_outage_rate: float = 0.004,
) -> Dict[str, int]:
    """Ablation: how many non-nolisting domains a single scan miscounts.

    Quantifies the value of the paper's repeat-two-months-later protocol.
    """
    from ..scan.detect import SingleScanVerdict, classify_single_scan
    from ..scan.population import SyntheticInternet
    from ..scan.scanner import DNSScanner, SMTPScanner

    config = PopulationConfig(
        num_domains=num_domains,
        transient_outage_rate=transient_outage_rate,
    )
    internet = SyntheticInternet(config, seed=seed)
    dns = DNSScanner(internet, glue_elision_rate=0.0).scan(0)
    smtp = SMTPScanner(internet).scan(0)

    truth_by_domain = {t.name: t.category for t in internet.domains}
    false_positives = 0
    true_positives = 0
    for observation in dns:
        verdict = classify_single_scan(observation, smtp)
        if verdict is not SingleScanVerdict.NOLISTING_CANDIDATE:
            continue
        if truth_by_domain[observation.domain] is DomainCategory.NOLISTING:
            true_positives += 1
        else:
            false_positives += 1
    return {
        "true_positives": true_positives,
        "false_positives": false_positives,
    }
