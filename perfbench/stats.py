"""Order statistics used by the benchmark and its stability command."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: percentiles considered for a latency tail, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count`` samples."""
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile of ``count`` samples."""
    return count - rank(count, pct)


def tail_percentile(count: int, candidates: Sequence[float] = TAIL_PERCENTILES) -> Optional[float]:
    """Highest candidate percentile with at least :data:`MIN_BEYOND` samples beyond it."""
    for pct in sorted(candidates, reverse=True):
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles`` n=4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when the median is 0)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
