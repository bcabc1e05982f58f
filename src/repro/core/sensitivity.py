"""Seed-sensitivity analysis of the headline reproductions.

A reproduction that only works at one magic seed is not a reproduction.
This harness re-runs the stochastic experiments across a seed sweep and
reports the spread of the quantities the paper's claims rest on:

* the Figure 2 adoption percentages;
* the Figure 5 benign-delay quantiles (with bootstrap CIs per run);
* the Table II family verdicts (which must be seed-invariant — they are
  behavioural, not statistical).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.bootstrap import ConfidenceInterval
from ..runner.cache import ResultCache
from ..runner.pool import run_tasks
from .defense_matrix import build_defense_matrix
from .testbed import Defense

DEFAULT_SEEDS: Sequence[int] = (1, 2, 3, 5, 8)


@dataclass
class AdoptionSensitivity:
    """Figure 2 percentages across seeds."""

    seeds: List[int]
    nolisting_pct: List[float]
    one_mx_pct: List[float]
    misclassified: List[int]


def adoption_sensitivity(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    num_domains: int = 5000,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> AdoptionSensitivity:
    """One full adoption experiment per seed, fanned over ``workers``."""
    from ..runner.shards import adoption_seed_task

    payloads = [
        {"num_domains": num_domains, "seed": seed} for seed in seeds
    ]
    rows = run_tasks(
        adoption_seed_task,
        payloads,
        workers=workers,
        cache=cache,
        experiment="adoption-sensitivity",
    )
    return AdoptionSensitivity(
        seeds=list(seeds),
        nolisting_pct=[row["nolisting_pct"] for row in rows],
        one_mx_pct=[row["one_mx_pct"] for row in rows],
        misclassified=[row["misclassified"] for row in rows],
    )


@dataclass
class DeploymentSensitivity:
    """Figure 5 medians across seeds, with per-run bootstrap CIs."""

    seeds: List[int]
    medians: List[float]
    median_cis: List[ConfidenceInterval] = field(default_factory=list)
    within_10min: List[float] = field(default_factory=list)


def deployment_sensitivity(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    num_messages: int = 800,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> DeploymentSensitivity:
    """One deployment experiment per seed, fanned over ``workers``."""
    from ..runner.shards import deployment_seed_task

    payloads = [
        {"num_messages": num_messages, "seed": seed} for seed in seeds
    ]
    rows = run_tasks(
        deployment_seed_task,
        payloads,
        workers=workers,
        cache=cache,
        experiment="deployment-sensitivity",
    )
    return DeploymentSensitivity(
        seeds=list(seeds),
        medians=[row["median"] for row in rows],
        median_cis=[
            ConfidenceInterval(
                estimate=row["ci"][0],
                low=row["ci"][1],
                high=row["ci"][2],
                level=row["ci"][3],
            )
            for row in rows
        ],
        within_10min=[row["within_10min"] for row in rows],
    )


def verdicts_seed_invariant(seeds: Sequence[int] = (3, 11, 23)) -> bool:
    """Table II verdicts must not depend on the seed."""
    reference: Dict[str, bool] = None
    for seed in seeds:
        matrix = build_defense_matrix(seed=seed, recipients=2)
        verdicts = {
            **{
                f"grey:{k}": v
                for k, v in matrix.family_verdicts(Defense.GREYLISTING).items()
            },
            **{
                f"nolist:{k}": v
                for k, v in matrix.family_verdicts(Defense.NOLISTING).items()
            },
        }
        if reference is None:
            reference = verdicts
        elif verdicts != reference:
            return False
    return True
