"""Bootstrap confidence intervals.

The reproduction's figures come from finite simulated samples; reporting
them without uncertainty would overstate precision.  This module provides
a deterministic (seeded) percentile bootstrap for arbitrary statistics —
used by the sensitivity harness to put intervals on the Figure 5 medians
and the adoption percentages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from ..sim.rng import RandomStream


@dataclass(frozen=True)
class ConfidenceInterval:
    """A percentile-bootstrap interval around a point estimate."""

    estimate: float
    low: float
    high: float
    level: float

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, (int, float)):
            return NotImplemented  # type: ignore[return-value]
        return self.low <= float(value) <= self.high

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4g} "
            f"[{self.low:.4g}, {self.high:.4g}] @{self.level:.0%}"
        )


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[Sequence[float]], float],
    level: float = 0.95,
    resamples: int = 1000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile bootstrap CI for ``statistic`` over ``samples``."""
    if not samples:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0.0 < level < 1.0:
        raise ValueError("confidence level must lie in (0, 1)")
    if resamples < 10:
        raise ValueError("need at least 10 resamples")
    values = list(samples)
    n = len(values)
    rng = RandomStream(seed, "bootstrap")
    stats: List[float] = []
    for _ in range(resamples):
        resample = [values[rng.randrange(n)] for _ in range(n)]
        stats.append(float(statistic(resample)))
    stats.sort()
    alpha = (1.0 - level) / 2.0
    lo_index = max(0, min(len(stats) - 1, int(alpha * resamples)))
    hi_index = max(0, min(len(stats) - 1, int((1.0 - alpha) * resamples) - 1))
    return ConfidenceInterval(
        estimate=float(statistic(values)),
        low=stats[lo_index],
        high=stats[hi_index],
        level=level,
    )


def median(samples: Sequence[float]) -> float:
    """Median helper usable as a bootstrap statistic."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("empty sample")
    mid = n // 2
    if n % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2.0
