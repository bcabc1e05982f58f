"""Module-level shard task functions for the experiment runner.

Each function here is the unit of work one worker process executes: it
takes a single JSON-able payload dict, runs a slice of an experiment, and
returns a JSON-able result — which makes every task simultaneously
picklable (for the process pool) and cacheable (for the on-disk result
cache).

Tasks derive *all* randomness from their payload via the ``seed:label``
RNG-splitting scheme, so a payload's result is identical whether it runs
inline, in a worker, today or next week.  Imports of experiment modules
happen inside the functions: :mod:`repro.core` modules import this module
to fan themselves out, and lazy imports keep that cycle harmless.
"""

from __future__ import annotations

from typing import Any, Dict, List


# ----------------------------------------------------------------------
# Figure 2: one chunk of the adoption scan
# ----------------------------------------------------------------------
def adoption_shard_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Generate, scan and classify one chunk of the synthetic internet.

    Payload keys: ``population`` (canonical config params), ``seed``,
    ``glue_elision_rate``, ``chunk``, and optionally ``faults`` (canonical
    :func:`~repro.faults.model.fault_params`; absent means no injection —
    keeping fault-free payloads byte-identical to the pre-fault cache key).

    Fault draws are keyed by ``(fault seed, kind, scan index, name)``, so
    the chunk decomposition cannot change which domains or addresses fail.

    Without an ``engine`` key the payload runs on the columnar engine
    (:func:`repro.scan.columnar.columnar_adoption_shard`), which counts
    fault-free chunks per outcome key and replays faulted ones.
    ``engine: "object"`` runs the oracle below instead: it builds and
    scans the full synthetic world and returns the identical result.  The
    key is only present off the default, so columnar payloads keep the
    cache identity object payloads had before the columnar default.
    """
    engine = payload.get("engine", "columnar")
    if engine == "columnar":
        from ..scan.columnar import columnar_adoption_shard

        return columnar_adoption_shard(payload)
    if engine != "object":
        raise ValueError(f"unknown adoption engine {engine!r}")

    from ..faults.model import FaultPlan, fault_from_params
    from ..scan.detect import DomainClass
    from ..scan.population import SyntheticInternet, population_from_params
    from ..scan.scanner import DNSScanner, SMTPScanner
    from ..sim.rng import RandomStream
    from ..core.adoption import _TRUTH_TO_CLASS

    config = population_from_params(payload["population"])
    seed = int(payload["seed"])
    internet = SyntheticInternet.shard(config, seed, [int(payload["chunk"])])

    faults = None
    if payload.get("faults") is not None:
        faults = FaultPlan(fault_from_params(payload["faults"]))

    rng = RandomStream(seed, "adoption-scan")
    dns_scanner = DNSScanner(
        internet,
        glue_elision_rate=float(payload["glue_elision_rate"]),
        rng=rng,
        faults=faults,
    )
    smtp_scanner = SMTPScanner(internet, faults=faults)

    dns_a = dns_scanner.scan(scan_index=0)
    dns_b = dns_scanner.scan(scan_index=1)
    repaired = dns_scanner.parallel_resolve(dns_a)
    repaired += dns_scanner.parallel_resolve(dns_b)
    smtp_a = smtp_scanner.scan(scan_index=0)
    smtp_b = smtp_scanner.scan(scan_index=1)

    from ..scan.detect import NolistingDetector

    detector = NolistingDetector(dns_a, smtp_a, dns_b, smtp_b)
    verdicts = detector.classify_all()
    summary = detector.summarize()

    truth_by_domain = {t.name: t.category for t in internet.domains}
    confusion = {"correct": 0, "wrong": 0}
    nolisting_domains: List[str] = []
    for verdict in verdicts:
        if verdict.domain_class is DomainClass.NOLISTING:
            nolisting_domains.append(verdict.domain)
        truth = truth_by_domain.get(verdict.domain)
        if truth is None:
            continue
        if verdict.domain_class is _TRUTH_TO_CLASS[truth]:
            confusion["correct"] += 1
        else:
            confusion["wrong"] += 1

    return {
        "total": summary.total_domains,
        "counts": {c.value: summary.counts.get(c, 0) for c in DomainClass},
        "flapped": summary.flapped,
        "servers": summary.servers_covered,
        "addresses": summary.addresses_covered,
        "repaired": repaired,
        "confusion": confusion,
        "nolisting_domains": sorted(nolisting_domains),
    }


# ----------------------------------------------------------------------
# Sensitivity harnesses: one seed per task
# ----------------------------------------------------------------------
def adoption_seed_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One full adoption experiment at one seed (Figure 2 sensitivity)."""
    from ..core.adoption import run_adoption_experiment
    from ..scan.detect import DomainClass

    run = run_adoption_experiment(
        num_domains=int(payload["num_domains"]), seed=int(payload["seed"])
    )
    percentages = run.measured_percentages()
    return {
        "nolisting_pct": percentages[DomainClass.NOLISTING],
        "one_mx_pct": percentages[DomainClass.ONE_MX],
        "misclassified": run.confusion["wrong"],
    }


def deployment_seed_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One deployment experiment at one seed (Figure 5 sensitivity)."""
    from ..analysis.bootstrap import bootstrap_ci, median
    from ..core.deployment import run_deployment_experiment

    seed = int(payload["seed"])
    run = run_deployment_experiment(
        num_messages=int(payload["num_messages"]), seed=seed
    )
    delays = run.delays
    ci = bootstrap_ci(delays, median, seed=seed, resamples=300)
    return {
        "median": median(delays),
        "ci": [ci.estimate, ci.low, ci.high, ci.level],
        "within_10min": run.fraction_delivered_within(600.0),
    }


# ----------------------------------------------------------------------
# Parameter sweeps: one grid point per task
# ----------------------------------------------------------------------
def internet_scale_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One what-if grid point of the internet-scale synthesis.

    ``engine: "object"`` runs the point on the per-object oracle; without
    the key it runs on the columnar engine, the default, so columnar
    payloads keep the cache identity object payloads had before the
    columnar default.  ``store_backend`` follows the same idiom: present
    only off the default memory backend.
    """
    from ..core.internet_scale import run_internet_scale

    result = run_internet_scale(
        num_domains=int(payload["num_domains"]),
        greylisting_rate=float(payload["greylisting_rate"]),
        nolisting_rate=float(payload["nolisting_rate"]),
        messages=int(payload["messages"]),
        seed=int(payload["seed"]),
        engine=str(payload.get("engine", "columnar")),
        store_backend=str(payload.get("store_backend", "memory")),
    )
    return {
        "num_domains": result.num_domains,
        "greylisting_rate": result.greylisting_rate,
        "nolisting_rate": result.nolisting_rate,
        "spam_sent": result.spam_sent,
        "spam_delivered": result.spam_delivered,
        "per_family_delivered": result.per_family_delivered,
        "per_family_sent": result.per_family_sent,
        "predicted_block_rate": result.predicted_block_rate,
    }


def synergy_delay_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One greylist-delay point of the synergy threshold sweep.

    ``store_backend`` is present only off the default memory backend, so
    memory-backend payloads keep their pre-backend cache identity.
    """
    from ..core.synergy import run_synergy_experiment

    result = run_synergy_experiment(
        "both",
        greylist_delay=float(payload["greylist_delay"]),
        reports_per_hour=float(payload["reports_per_hour"]),
        num_messages=int(payload["num_messages"]),
        seed=int(payload["seed"]),
        store_backend=str(payload.get("store_backend", "memory")),
    )
    return {
        "configuration": result.configuration,
        "greylist_delay": result.greylist_delay,
        "reports_per_hour": result.reports_per_hour,
        "num_messages": result.num_messages,
        "delivered": result.delivered,
        "dnsbl_rejections": result.dnsbl_rejections,
        "listed_after": result.listed_after,
    }


# ----------------------------------------------------------------------
# Scorecard: one section per task
# ----------------------------------------------------------------------
def scorecard_section_task(payload: Dict[str, Any]) -> list:
    """Score one scorecard section; returns a list of ScorecardRow.

    Rows are plain dataclasses (picklable, not cached), so this task fans
    out over the pool but bypasses the JSON cache.
    """
    from ..core import scorecard

    section = payload["section"]
    return scorecard.score_section(
        section, seed=int(payload["seed"]), scale=float(payload["scale"])
    )
