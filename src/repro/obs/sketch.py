"""Mergeable quantile sketches with a bounded relative error.

The serving layer needs percentiles in two places that a classic
fixed-bucket histogram serves badly:

* per-model request latency in :class:`repro.serve.metrics.LatencyHistogram`,
  where the old bucket-upper-bound estimate could be off by the full bucket
  width (the coarse 5/10/20-per-decade grid means up to 2x);
* per-tenant SLO latency objectives (:mod:`repro.obs.slo`), which need "is
  tenant X's p99 above 250 ms" answered cheaply and continuously.

:class:`QuantileSketch` is a DDSketch-style sketch (Masson, Rim & Lee,
VLDB'19): bucket boundaries are powers of ``gamma = (1 + a) / (1 - a)`` for a
relative accuracy ``a``, so *any* quantile estimate ``x̂`` of a true sample
value ``x`` within the tracked range satisfies ``|x̂ - x| <= a * x``.  Three
properties matter here:

* **mergeable** — bucket counts are additive, so merging N sketches yields
  exactly the sketch of the pooled stream (merge is associative and
  commutative);
* **fixed memory** — the tracked value range is fixed up front, so the
  bucket array never grows and the whole sketch *is* a constant-length
  float64 row (``[count, sum, min, max, bucket_0, ...]``);
* **cheap** — recording is one log + one array increment; no samples are
  retained, so a week-long soak costs the same memory as the first request.

Values below ``min_value`` are exact-counted in an underflow bucket and
reported as the minimum observation; values above ``max_value`` are clamped
into the last bucket and reported as the maximum observation, so the error
bound formally holds on ``[min_value, max_value]`` (the defaults bracket
1 µs .. 20 000 s, far beyond any serving latency).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

#: Default relative accuracy: quantile estimates within 1% of a true sample.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Default tracked value range in seconds (1 µs .. 20 000 s).
DEFAULT_MIN_VALUE = 1e-6
DEFAULT_MAX_VALUE = 2e4

#: Header cells preceding the bucket counts in the flat row form.
_HEADER_FIELDS = ("count", "sum", "min", "max")
_HEADER = len(_HEADER_FIELDS)


def _num_buckets(relative_accuracy: float, min_value: float, max_value: float) -> int:
    gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
    # Bucket i (1-based) covers (min * gamma**(i-1), min * gamma**i];
    # bucket 0 is the underflow bucket covering (0, min_value].
    return int(math.ceil(math.log(max_value / min_value) / math.log(gamma))) + 1


class QuantileSketch:
    """A mergeable log-bucket quantile sketch with relative-error guarantee.

    Parameters
    ----------
    relative_accuracy:
        ``a`` in ``(0, 1)``: every percentile estimate is within a factor
        ``(1 ± a)`` of some true sample value at that rank.
    min_value, max_value:
        The tracked range.  Observations below/above are clamped (the true
        min/max are still reported exactly via :attr:`min` / :attr:`max`).

    The sketch state lives in one float64 row ``[count, sum, min, max,
    bucket_0, ...]``; a zero row is the empty sketch.
    """

    __slots__ = ("_alpha", "_min_value", "_max_value", "_gamma", "_log_gamma", "_row")

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
    ):
        relative_accuracy = float(relative_accuracy)
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        min_value = float(min_value)
        max_value = float(max_value)
        if not 0.0 < min_value < max_value:
            raise ValueError("need 0 < min_value < max_value")
        self._alpha = relative_accuracy
        self._min_value = min_value
        self._max_value = max_value
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        length = _HEADER + _num_buckets(relative_accuracy, min_value, max_value)
        self._row = np.zeros(length, dtype=np.float64)

    # ------------------------------------------------------------ properties
    @property
    def relative_accuracy(self) -> float:
        return self._alpha

    @property
    def count(self) -> int:
        return int(self._row[0])

    @property
    def sum(self) -> float:
        return float(self._row[1])

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return float(self._row[2])

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        return float(self._row[3])

    @property
    def mean(self) -> float:
        count = self._row[0]
        return float(self._row[1] / count) if count else 0.0

    def row_length(self) -> int:
        return self._row.shape[0]

    # ------------------------------------------------------------- recording
    def _bucket_index(self, value: float) -> int:
        if value <= self._min_value:
            return 0
        index = int(math.ceil(math.log(value / self._min_value) / self._log_gamma))
        return min(index, self.row_length() - _HEADER - 1)

    def record(self, value: float) -> None:
        """Record one observation (must be positive; latencies always are)."""
        value = float(value)
        if not value > 0.0 or not math.isfinite(value):
            raise ValueError(f"value must be positive and finite, got {value}")
        row = self._row
        row[_HEADER + self._bucket_index(value)] += 1.0
        if row[0] == 0.0:
            row[2] = value
            row[3] = value
        else:
            if value < row[2]:
                row[2] = value
            if value > row[3]:
                row[3] = value
        row[1] += value
        row[0] += 1.0

    # ------------------------------------------------------------- quantiles
    def _bucket_estimate(self, index: int) -> float:
        """Representative value of bucket *index* (relative error <= a)."""
        if index == 0:
            return self._min_value
        # Bucket covers (min * gamma**(index-1), min * gamma**index]; the
        # estimate 2 * gamma**index / (gamma + 1) * min is within a factor
        # (1 ± a) of both endpoints.
        return self._min_value * (2.0 * self._gamma ** index / (self._gamma + 1.0))

    def percentile(self, p: float) -> float:
        """The *p*-th percentile estimate in the recorded unit (0.0 if empty).

        Uses the nearest-rank definition: the estimate corresponds to the
        ``ceil(p / 100 * count)``-th smallest observation and is within
        relative error :attr:`relative_accuracy` of that observation's true
        value (for observations inside the tracked range).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        row = self._row
        count = float(row[0])
        if count <= 0:
            return 0.0
        rank = max(1.0, math.ceil(p / 100.0 * count))
        if rank >= count:
            return float(row[3])  # the top-ranked sample is the exact max
        cumulative = 0.0
        estimate = float(row[2])
        for index in range(self.row_length() - _HEADER):
            cumulative += row[_HEADER + index]
            if cumulative >= rank:
                estimate = self._bucket_estimate(index)
                break
        # Clamping to the observed extremes never hurts the bound (the true
        # ranked sample lies between them) and makes p0/p100 exact.
        return min(max(estimate, float(row[2])), float(row[3]))

    # --------------------------------------------------------------- merging
    def _check_compatible(self, other: "QuantileSketch") -> None:
        if (
            self._alpha != other._alpha
            or self._min_value != other._min_value
            or self._max_value != other._max_value
        ):
            raise ValueError("cannot merge sketches with different parameters")

    def merge(self, other: "QuantileSketch") -> None:
        """Fold *other* into this sketch (*other* is unchanged).

        Merging is associative and commutative: any merge order over a set
        of sketches produces identical bucket counts (counts are integral,
        and float64 addition of integers is exact below 2**53).  The ``sum``
        cell is a float accumulation and may differ across orders by ULPs —
        it never feeds percentile estimates.
        """
        self._check_compatible(other)
        row, theirs = self._row, other._row
        if theirs[0] == 0.0:
            return
        if row[0] == 0.0:
            row[2], row[3] = theirs[2], theirs[3]
        else:
            row[2] = min(row[2], theirs[2])
            row[3] = max(row[3], theirs[3])
        row[_HEADER:] += theirs[_HEADER:]
        row[1] += theirs[1]
        row[0] += theirs[0]

    def to_row(self) -> np.ndarray:
        """A copy of the flat ``[count, sum, min, max, buckets...]`` row."""
        return self._row.copy()

    # -------------------------------------------------------------- snapshot
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary in milliseconds (matching serving metrics)."""
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self.percentile(50) * 1e3,
            "p95_ms": self.percentile(95) * 1e3,
            "p99_ms": self.percentile(99) * 1e3,
            "max_ms": self.max * 1e3,
            "relative_accuracy": self._alpha,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self.count}, a={self._alpha}, "
            f"cells={self.row_length()})"
        )


__all__ = [
    "DEFAULT_MAX_VALUE",
    "DEFAULT_MIN_VALUE",
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
]
