"""Serving metrics: per-model counters, latency histograms, batch-size stats.

Recording a latency is a handful of in-place updates under a lock, so the
metrics layer never competes with the inference kernels it is measuring.
Snapshots are plain dictionaries ready for ``json.dumps`` — that is what
``GET /v1/metrics`` returns — and the same objects are reused by the serving
benchmark to report percentiles.

Percentiles are answered by a mergeable
:class:`~repro.obs.sketch.QuantileSketch` (bounded relative error, fixed
memory — no retained sample lists), while the coarse fixed buckets are kept
for Prometheus exposition.  Traced requests leave an *exemplar* — the most
recent ``trace_id`` per latency bucket — so an operator can jump from a p99
regression straight to a span tree.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.obs.sketch import QuantileSketch

#: Default latency bucket upper bounds in seconds: log-spaced from 50 µs to
#: 20 s, which brackets everything from a packed single-sample lookup to a
#: cold full-batch encode on a slow machine.
_DEFAULT_BOUNDS = tuple(
    round(base * scale, 9)
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (5.0, 10.0, 20.0)
)


class LatencyHistogram:
    """Latency distribution: sketch percentiles + fixed Prometheus buckets.

    Two views over the same observations, updated atomically:

    * a :class:`~repro.obs.sketch.QuantileSketch` answers percentile
      queries with a bounded relative error (1% by default) in fixed
      memory — no sample list is retained, so a week-long soak costs the
      same as the first request;
    * coarse fixed buckets (``bounds``, cumulative in snapshots) feed the
      Prometheus exposition, where the bucket grid *is* the contract.

    Traced observations additionally leave an exemplar — the most recent
    ``(trace_id, value, timestamp)`` per bucket — surfaced in snapshots and
    as OpenMetrics exemplar annotations.

    Parameters
    ----------
    bounds:
        Increasing bucket upper bounds in seconds.  Observations above the
        last bound land in an overflow bucket whose reported value is the
        largest observation seen.
    """

    def __init__(self, bounds: Sequence[float] = _DEFAULT_BOUNDS):
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bounds must be strictly increasing")
        if not bounds:
            raise ValueError("at least one bucket bound is required")
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._total = 0.0
        self._max = 0.0
        self._sketch = QuantileSketch()
        self._exemplars: Dict[int, Dict[str, object]] = {}
        self._lock = threading.Lock()

    def record(self, seconds: float, trace_id: Optional[str] = None) -> None:
        """Record one observation (in seconds), optionally with its trace."""
        seconds = float(seconds)
        index = bisect.bisect_left(self._bounds, seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._total += seconds
            if seconds > self._max:
                self._max = seconds
            if seconds > 0.0:
                self._sketch.record(seconds)
            if trace_id:
                self._exemplars[index] = {
                    "trace_id": trace_id,
                    "value": seconds,
                    "timestamp": time.time(),
                }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def mean(self) -> float:
        """Mean observed latency in seconds (0.0 when empty)."""
        with self._lock:
            return self._total / self._count if self._count else 0.0

    def percentile(self, p: float) -> float:
        """The *p*-th percentile in seconds, from the quantile sketch.

        The estimate is within the sketch's relative accuracy (1% by
        default) of the exact nearest-rank sample value.  Returns 0.0 when
        nothing has been recorded.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        with self._lock:
            return self._sketch.percentile(p) if self._sketch.count else 0.0

    def slow_exemplars(self, k: int = 5) -> List[Dict[str, object]]:
        """Up to *k* captured exemplars, slowest buckets first."""
        with self._lock:
            exemplars = sorted(
                self._exemplars.values(), key=lambda e: e["value"], reverse=True
            )
        return [dict(exemplar) for exemplar in exemplars[:k]]

    def snapshot(self) -> Dict[str, object]:
        """Summary dictionary with millisecond-denominated statistics.

        Taken under the lock in one piece, so concurrent :meth:`record`
        calls can never produce a torn view (e.g. a count that disagrees
        with the bucket totals or a stale ``max_ms``).  ``buckets`` carries
        the *cumulative* per-bound counts in Prometheus histogram form
        (final bucket ``le="+Inf"``); buckets whose range captured a traced
        request carry its most recent exemplar.  Percentiles come from the
        sketch (relative error <= ``relative_accuracy``).
        """
        with self._lock:
            buckets = []
            cumulative = 0
            for index, (bound, bucket_count) in enumerate(
                zip(self._bounds, self._counts)
            ):
                cumulative += bucket_count
                entry: Dict[str, object] = {"le": bound, "count": cumulative}
                exemplar = self._exemplars.get(index)
                if exemplar is not None:
                    entry["exemplar"] = dict(exemplar)
                buckets.append(entry)
            overflow: Dict[str, object] = {"le": "+Inf", "count": self._count}
            exemplar = self._exemplars.get(len(self._bounds))
            if exemplar is not None:
                overflow["exemplar"] = dict(exemplar)
            buckets.append(overflow)
            sketch = self._sketch
            return {
                "count": self._count,
                "mean_ms": (self._total / self._count if self._count else 0.0) * 1e3,
                "p50_ms": sketch.percentile(50) * 1e3,
                "p95_ms": sketch.percentile(95) * 1e3,
                "p99_ms": sketch.percentile(99) * 1e3,
                "max_ms": self._max * 1e3,
                "sum_seconds": self._total,
                "relative_accuracy": sketch.relative_accuracy,
                "buckets": buckets,
            }


class ModelMetrics:
    """Counters and histograms for one served model.

    Besides the end-to-end request latency, the model keeps one
    :class:`LatencyHistogram` per pipeline *stage* (``validate``,
    ``queue_wait``, ``batch_execute``, ...) so ``/v1/metrics`` can
    answer "where does a request spend its time" without a trace file.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.samples = 0
        self.errors = 0
        self.sheds = 0
        self.deadline_exceeded = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.latency = LatencyHistogram()
        self._batch_sizes: Dict[int, int] = {}
        self._stages: Dict[str, LatencyHistogram] = {}

    def record_request(
        self, num_samples: int, seconds: float, trace_id: Optional[str] = None
    ) -> None:
        """Record one successful inference call over *num_samples* samples.

        Passing the request's ``trace_id`` (when sampled) lets the latency
        histogram capture it as an exemplar.
        """
        self.latency.record(seconds, trace_id=trace_id)
        with self._lock:
            self.requests += 1
            self.samples += int(num_samples)

    def record_batch(self, batch_size: int) -> None:
        """Record the size of one coalesced micro-batch."""
        batch_size = int(batch_size)
        with self._lock:
            self._batch_sizes[batch_size] = self._batch_sizes.get(batch_size, 0) + 1

    def record_error(self) -> None:
        with self._lock:
            self.errors += 1

    def record_shed(self) -> None:
        """Record one request rejected by admission control (HTTP 429)."""
        with self._lock:
            self.sheds += 1

    def record_deadline(self) -> None:
        """Record one request that missed its deadline (HTTP 504)."""
        with self._lock:
            self.deadline_exceeded += 1

    def record_cache_hit(self) -> None:
        """Record one prediction answered from the request-level cache."""
        with self._lock:
            self.cache_hits += 1

    def record_cache_miss(self) -> None:
        """Record one prediction that had to run inference."""
        with self._lock:
            self.cache_misses += 1

    def record_stage(self, stage: str, seconds: float) -> None:
        """Record one *stage* timing (histogram created on first use).

        The common case — the stage histogram already exists — holds the
        model lock only for a dict lookup; the record itself runs under the
        histogram's own lock, so stage recording never serialises against
        the request counters.
        """
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = LatencyHistogram()
        histogram.record(seconds)

    def stage(self, name: str) -> "LatencyHistogram":
        """The histogram for *name* (creating it empty on first use)."""
        with self._lock:
            histogram = self._stages.get(name)
            if histogram is None:
                histogram = self._stages[name] = LatencyHistogram()
            return histogram

    @property
    def batch_size_distribution(self) -> Dict[int, int]:
        with self._lock:
            return dict(sorted(self._batch_sizes.items()))

    def snapshot(self) -> Dict[str, object]:
        # All counters are read in one critical section so a concurrent
        # record_request can never yield a snapshot where e.g. ``samples``
        # reflects an update that ``requests`` does not.
        with self._lock:
            requests = self.requests
            samples = self.samples
            errors = self.errors
            sheds = self.sheds
            deadline_exceeded = self.deadline_exceeded
            cache_hits = self.cache_hits
            cache_misses = self.cache_misses
            batches = dict(sorted(self._batch_sizes.items()))
            stages = dict(self._stages)
        total_batches = sum(batches.values())
        batched_samples = sum(size * count for size, count in batches.items())
        lookups = cache_hits + cache_misses
        return {
            "requests": requests,
            "samples": samples,
            "errors": errors,
            "sheds": sheds,
            "deadline_exceeded": deadline_exceeded,
            "cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": cache_hits / lookups if lookups else 0.0,
            },
            "latency": self.latency.snapshot(),
            "batches": total_batches,
            "mean_batch_size": (
                batched_samples / total_batches if total_batches else 0.0
            ),
            "batch_size_distribution": {
                str(size): count for size, count in batches.items()
            },
            "stages": {name: histogram.snapshot() for name, histogram in stages.items()},
        }


class MetricsRegistry:
    """Thread-safe name → :class:`ModelMetrics` map for the whole server."""

    def __init__(self):
        self._lock = threading.Lock()
        self._models: Dict[str, ModelMetrics] = {}

    def for_model(self, name: str) -> ModelMetrics:
        """Return (creating on first use) the metrics of model *name*."""
        with self._lock:
            metrics = self._models.get(name)
            if metrics is None:
                metrics = self._models[name] = ModelMetrics()
            return metrics

    def model_names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot of every model's metrics."""
        with self._lock:
            models = dict(self._models)
        return {
            "models": {name: metrics.snapshot() for name, metrics in models.items()}
        }


__all__ = [
    "LatencyHistogram",
    "ModelMetrics",
    "MetricsRegistry",
]
