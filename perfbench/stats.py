"""Order statistics for benchmark samples.

Percentiles use the nearest-rank definition: the q-th percentile of n
ascending samples is the sample at rank ``ceil(q / 100 * n)``, so every
reported value is one that was actually measured.  A percentile is only
worth reporting when enough samples lie beyond it; :func:`deepest` finds
the highest standard percentile with at least ten.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles the tail summary considers, shallowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    # The epsilon keeps float error from pushing an exact rank up one.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of ascending ``ordered``."""
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly past the q-th percentile's rank."""
    return n - rank(n, q)


def deepest(n: int) -> Optional[float]:
    """Highest of :data:`TAIL_PERCENTILES` with :data:`MIN_BEYOND` samples past it."""
    best = None
    for q in TAIL_PERCENTILES:
        if n >= 1 and beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def tail_summary(values: Sequence[float]) -> Dict[str, object]:
    """p50, p90, p99 and the deepest reportable percentile, with counts.

    Returns ``{"n": .., "p50": .., "p90": .., "p99": .., "deepest":
    (q, value, beyond) or None}``; a percentile without ``MIN_BEYOND``
    samples beyond it is still computed but flagged by its count.
    """
    ordered: List[float] = sorted(values)
    n = len(ordered)
    summary: Dict[str, object] = {"n": n}
    for q in (50.0, 90.0, 99.0):
        summary[f"p{q:g}"] = percentile(ordered, q)
        summary[f"p{q:g}_beyond"] = beyond(n, q)
    q = deepest(n)
    summary["deepest"] = (
        None if q is None else (q, percentile(ordered, q), beyond(n, q))
    )
    return summary


def format_tail(summary: Dict[str, object], unit: str = "ms") -> str:
    """One human-readable line for :func:`tail_summary`'s result."""
    parts = [f"n={summary['n']}"]
    for q in ("50", "90", "99"):
        parts.append(
            f"p{q}={summary['p' + q]:.4f} {unit} "
            f"({summary['p' + q + '_beyond']} beyond)"
        )
    deepest_q = summary["deepest"]
    if deepest_q is not None:
        q, value, count = deepest_q  # type: ignore[misc]
        parts.append(f"p{q:g}={value:.4f} {unit} ({count} beyond)")
    return " ".join(parts)


def quartile_spread(values: Sequence[float]) -> Tuple[float, float]:
    """(median, (Q3 - Q1) / median) as ``statistics.quantiles`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")
