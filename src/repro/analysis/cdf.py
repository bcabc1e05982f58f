"""Empirical cumulative distribution functions.

The paper's Figures 3 and 5 are delay CDFs; this module provides the small
amount of statistics machinery needed to build, evaluate, compare and
serialise them without external dependencies.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Tuple


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical CDF over a finite sample."""

    values: Tuple[float, ...]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalCDF":
        values = tuple(sorted(float(s) for s in samples))
        if not values:
            raise ValueError("cannot build a CDF from an empty sample")
        return cls(values)

    @property
    def n(self) -> int:
        return len(self.values)

    def at(self, x: float) -> float:
        """F(x) = P(X <= x)."""
        return bisect.bisect_right(self.values, x) / self.n

    def quantile(self, q: float) -> float:
        """Inverse CDF: the smallest value v with F(v) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile level must lie in (0, 1]")
        index = max(0, min(self.n - 1, int(-(-q * self.n // 1)) - 1))
        return self.values[index]

    @property
    def median(self) -> float:
        return self.quantile(0.5)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    @property
    def mean(self) -> float:
        return sum(self.values) / self.n

    def steps(self) -> List[Tuple[float, float]]:
        """The (x, F(x)) step points — one per distinct sample value."""
        points: List[Tuple[float, float]] = []
        for index, value in enumerate(self.values):
            if index + 1 < self.n and self.values[index + 1] == value:
                continue
            points.append((value, (index + 1) / self.n))
        return points


def ks_distance(a: EmpiricalCDF, b: EmpiricalCDF) -> float:
    """Kolmogorov-Smirnov distance: sup_x |F_a(x) - F_b(x)|.

    The paper argues Figures 3a and 3b are "similar", i.e. Kelihos ignores
    the threshold change; KS distance makes that claim quantitative.
    """
    xs = sorted(set(a.values) | set(b.values))
    return max(abs(a.at(x) - b.at(x)) for x in xs)


def ascii_cdf(
    cdf: EmpiricalCDF,
    width: int = 60,
    height: int = 12,
    x_label: str = "x",
) -> str:
    """Render a CDF as an ASCII plot (used by benches to 'draw' figures)."""
    if width < 10 or height < 4:
        raise ValueError("plot too small")
    lo, hi = cdf.min, cdf.max
    span = (hi - lo) or 1.0
    rows: List[str] = []
    for row in range(height, 0, -1):
        level = row / height
        line = []
        for col in range(width):
            x = lo + span * col / (width - 1)
            line.append("#" if cdf.at(x) >= level else " ")
        rows.append(f"{level:4.2f} |" + "".join(line))
    axis = "     +" + "-" * width
    labels = f"      {lo:<12.1f}{'':<{max(0, width - 24)}}{hi:>12.1f}  ({x_label})"
    return "\n".join(rows + [axis, labels])
