"""Binning helper for the Figure 4 retry-delay report."""

from __future__ import annotations

from typing import List, Sequence, Tuple


def histogram(
    samples: Sequence[float], edges: Sequence[float]
) -> List[Tuple[Tuple[float, float], int]]:
    """Bin samples into [edges[i], edges[i+1]) intervals.

    Used to locate the retry-delay peaks of Figure 4.
    """
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    if sorted(edges) != list(edges):
        raise ValueError("bin edges must be ascending")
    counts = [0] * (len(edges) - 1)
    for sample in samples:
        for i in range(len(edges) - 1):
            if edges[i] <= sample < edges[i + 1]:
                counts[i] += 1
                break
    return [
        ((edges[i], edges[i + 1]), counts[i]) for i in range(len(edges) - 1)
    ]
