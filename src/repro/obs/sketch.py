"""Quantile sketches with a bounded relative error.

Every latency percentile in the serving stack comes from
:class:`QuantileSketch`: the per-model request latency and the per-stage
timings in :class:`repro.serve.metrics.LatencyHistogram`.  A classic
fixed-bucket histogram serves these badly: its bucket-upper-bound estimate
can be off by the full bucket width (up to 2x on the coarse
5/10/20-per-decade grid).

:class:`QuantileSketch` is a DDSketch-style sketch (Masson, Rim & Lee,
VLDB'19): bucket boundaries are powers of ``gamma = (1 + a) / (1 - a)`` for a
relative accuracy ``a``, so *any* quantile estimate ``x̂`` of a true sample
value ``x`` within the tracked range satisfies ``|x̂ - x| <= a * x``.  Two
properties matter here:

* **fixed memory** — the tracked value range is fixed up front, so the
  bucket array never grows;
* **cheap** — recording is one log + one increment; no samples are
  retained, so a week-long soak costs the same memory as the first request.

Values below ``min_value`` are exact-counted in an underflow bucket and
values above ``max_value`` are clamped into the last bucket; estimates are
clamped to the smallest and largest observation, so the error bound
formally holds on ``[min_value, max_value]`` (the defaults bracket
1 µs .. 20 000 s, far beyond any serving latency).
"""

from __future__ import annotations

import math

#: Default relative accuracy: quantile estimates within 1% of a true sample.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Default tracked value range in seconds (1 µs .. 20 000 s).
DEFAULT_MIN_VALUE = 1e-6
DEFAULT_MAX_VALUE = 2e4


def _num_buckets(relative_accuracy: float, min_value: float, max_value: float) -> int:
    gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
    # Bucket i (1-based) covers (min * gamma**(i-1), min * gamma**i];
    # bucket 0 is the underflow bucket covering (0, min_value].
    return int(math.ceil(math.log(max_value / min_value) / math.log(gamma))) + 1


class QuantileSketch:
    """A log-bucket quantile sketch with a relative-error guarantee.

    Parameters
    ----------
    relative_accuracy:
        ``a`` in ``(0, 1)``: every percentile estimate is within a factor
        ``(1 ± a)`` of some true sample value at that rank.
    min_value, max_value:
        The tracked range.  Observations below/above are clamped into the
        first/last bucket.
    """

    __slots__ = (
        "_alpha",
        "_min_value",
        "_gamma",
        "_log_gamma",
        "_buckets",
        "_count",
        "_min",
        "_max",
    )

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
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self._buckets = [0] * _num_buckets(relative_accuracy, min_value, max_value)
        self._count = 0
        self._min = 0.0
        self._max = 0.0

    @property
    def relative_accuracy(self) -> float:
        return self._alpha

    @property
    def count(self) -> int:
        return self._count

    # ------------------------------------------------------------- recording
    def _bucket_index(self, value: float) -> int:
        if value <= self._min_value:
            return 0
        index = int(math.ceil(math.log(value / self._min_value) / self._log_gamma))
        return min(index, len(self._buckets) - 1)

    def record(self, value: float) -> None:
        """Record one observation (must be positive; latencies always are)."""
        value = float(value)
        if not value > 0.0 or not math.isfinite(value):
            raise ValueError(f"value must be positive and finite, got {value}")
        self._buckets[self._bucket_index(value)] += 1
        if self._count == 0:
            self._min = self._max = value
        elif value < self._min:
            self._min = value
        elif value > self._max:
            self._max = value
        self._count += 1

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
        count = self._count
        if count == 0:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * count))
        if rank >= count:
            return self._max  # the top-ranked sample is the exact max
        cumulative = 0
        estimate = self._min
        for index, bucket_count in enumerate(self._buckets):
            cumulative += bucket_count
            if cumulative >= rank:
                estimate = self._bucket_estimate(index)
                break
        # Clamping to the observed extremes never hurts the bound (the true
        # ranked sample lies between them).
        return min(max(estimate, self._min), self._max)


__all__ = [
    "DEFAULT_MAX_VALUE",
    "DEFAULT_MIN_VALUE",
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
]
