"""Order statistics shared by every workload of the benchmark.

Timings are reported as a median plus a tail percentile, and a tail is
only claimed when at least :data:`MIN_BEYOND` samples lie beyond it: with
``n`` samples the p-th percentile has ``n * (1 - p/100)`` samples above it,
so p90 needs 100 samples and p99 needs 1000.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: The named percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def samples_beyond(n: int, pct: float) -> float:
    """How many of ``n`` samples lie above the ``pct``-th percentile."""
    return n * (1.0 - pct / 100.0)


def has_tail(n: int, pct: float) -> bool:
    """True when ``n`` samples support reporting the ``pct``-th percentile."""
    # Round away float fuzz: 100 samples support p90 exactly.
    return round(samples_beyond(n, pct), 9) >= MIN_BEYOND


def min_samples(pct: float) -> int:
    """Fewest samples that support the ``pct``-th percentile."""
    n = math.floor(MIN_BEYOND / (1.0 - pct / 100.0))
    while not has_tail(n, pct):
        n += 1
    return n


def highest_tail(n: int) -> Optional[float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    best = None
    for pct in PERCENTILE_LADDER:
        if has_tail(n, pct):
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the ``statistics`` 'inclusive' rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile, refusing when the sample is too small."""
    if not has_tail(len(values), pct):
        raise ValueError(
            f"p{pct:g} needs {min_samples(pct)} samples, "
            f"got {len(values)}"
        )
    return percentile(values, pct)
