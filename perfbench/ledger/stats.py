"""Percentiles that carry their own support.

A percentile is only worth reporting when enough samples lie beyond it: the
ledger requires at least :data:`MIN_BEYOND` samples above the reported value.
Percentiles use the nearest-rank definition, so "samples beyond" is an exact
count rather than an interpolation artefact.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first, when summarising a latency sample.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0)


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile *q* in a sample of *n*."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # The epsilon absorbs float error in q * n / 100 (e.g. 99 * 1000 / 100).
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def samples_beyond(n: int, q: float) -> int:
    """How many of *n* sorted samples sit strictly after the *q*-th percentile."""
    return n - _rank(n, q)


def is_supported(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """True when a sample of *n* has at least *min_beyond* values beyond *q*."""
    return n > 0 and samples_beyond(n, q) >= min_beyond


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* of *values* (which need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def tail_percentile(n: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """The highest percentile of *ladder* that a sample of *n* supports."""
    for q in ladder:
        if is_supported(n, q):
            return q
    return None


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def describe(values: Sequence[float], unit: str) -> str:
    """``p50=… p99=… (n=…)`` with only the percentiles the sample supports."""
    n = len(values)
    if n == 0:
        return "no samples"
    parts = [f"p50={percentile(values, 50):.4g} {unit}"]
    tail = tail_percentile(n)
    if tail is not None:
        parts.append(f"p{tail:g}={percentile(values, tail):.4g} {unit}")
    else:
        parts.append(f"no tail percentile (needs {MIN_BEYOND} samples beyond p75)")
    return " ".join(parts) + f" (n={n})"
