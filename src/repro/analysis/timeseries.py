"""Time-binned series over event streams.

Sochor's long-term studies (cited as [31]-[33] by the paper) tracked
greylisting effectiveness across months and found it stable; the paper's
own university dataset spans four months.  This module provides the
binning machinery those analyses need: group timestamped events into
fixed-width windows and compute per-window rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

T = TypeVar("T")

DAY = 86400.0
WEEK = 7 * DAY


@dataclass(frozen=True)
class TimeBin:
    """One window of a time series."""

    start: float
    end: float
    count: int
    matching: int

    @property
    def rate(self) -> Optional[float]:
        """Fraction of events in the bin satisfying the predicate."""
        if self.count == 0:
            return None
        return self.matching / self.count


def bin_events(
    events: Iterable[T],
    timestamp: Callable[[T], float],
    predicate: Callable[[T], bool],
    bin_width: float = WEEK,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> List[TimeBin]:
    """Bin events into fixed windows and compute the predicate rate.

    ``start``/``end`` default to the observed extremes, snapped outward to
    whole bins.  Empty bins inside the range are kept (rate ``None``), so
    gaps are visible.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    items = [(timestamp(e), predicate(e)) for e in events]
    if not items:
        return []
    times = [t for t, _ in items]
    lo = start if start is not None else min(times)
    hi = end if end is not None else max(times)
    if hi < lo:
        raise ValueError("end before start")
    first_bin = int(lo // bin_width)
    last_bin = int(hi // bin_width)
    counts = [0] * (last_bin - first_bin + 1)
    matches = [0] * (last_bin - first_bin + 1)
    for t, ok in items:
        index = int(t // bin_width) - first_bin
        if 0 <= index < len(counts):
            counts[index] += 1
            if ok:
                matches[index] += 1
    return [
        TimeBin(
            start=(first_bin + i) * bin_width,
            end=(first_bin + i + 1) * bin_width,
            count=counts[i],
            matching=matches[i],
        )
        for i in range(len(counts))
    ]


def rate_stability(bins: Sequence[TimeBin]) -> Optional[float]:
    """Max minus min per-bin rate (0 = perfectly stable), ignoring empties.

    Sochor's finding — "the effectiveness of greylisting remained constant
    over the two years" — translates to a small stability value.
    """
    rates = [b.rate for b in bins if b.rate is not None]
    if not rates:
        return None
    return max(rates) - min(rates)
