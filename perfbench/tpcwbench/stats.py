"""Order statistics used by the benchmark and its steadiness report."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail latency may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` samples lie strictly above ``percentile``."""
    return count - math.ceil(count * percentile / 100.0)


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with >= 10 samples beyond it (None if
    even the median has fewer)."""
    for percentile in TAIL_LADDER:
        if samples_beyond(count, percentile) >= MIN_SAMPLES_BEYOND:
            return percentile
    return None


def percentile_name(prefix: str, percentile: float) -> str:
    """``latency`` + 99.0 -> ``latency_p99_ms``; 99.9 -> ``latency_p99.9_ms``."""
    text = f"{percentile:g}"
    return f"{prefix}_p{text}_ms"


def percentile(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * percentile / 100.0))
    return ordered[rank - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def relative_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a constant)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)
