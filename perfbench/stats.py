"""Summary statistics of the benchmark: the gated median and mean rate,
and the ungated tail percentile."""

from __future__ import annotations

import math
import statistics

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def mean_rate(durations) -> float:
    """Operations per second: count divided by the summed durations (s).

    Unlike the median, one long stall moves this figure."""
    durations = list(durations)
    total = math.fsum(durations)
    if not durations or total <= 0:
        raise ValueError("mean rate needs at least one positive duration")
    return len(durations) / total


def tail_percentile(values):
    """``(p, value, n)`` for the highest ladder percentile with at least
    ``TAIL_BEYOND`` samples beyond it (nearest rank), or ``None``.

    Below ``4 * TAIL_BEYOND`` samples no ladder step qualifies, so the
    tail is omitted and the median stands alone."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(round(p * n / 100.0, 6))  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return p, float(ordered[rank - 1]), n
    return None
