"""Serving metrics: per-model counters and latency histograms.

Recording a latency is a handful of in-place updates under a lock, so the
metrics layer never competes with the inference kernels it is measuring.
Snapshots are plain dictionaries that
:func:`~repro.obs.prometheus.render_prometheus` turns into the
``GET /metrics`` exposition.

Latencies are fixed Prometheus buckets with a count and a sum; quantiles are
the scraper's ``histogram_quantile`` over the buckets.  Traced requests leave
an *exemplar* — the most recent ``trace_id`` per latency bucket — so an
operator can jump from a p99 regression straight to a span tree.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import Dict, Optional, Sequence

#: Default latency bucket upper bounds in seconds: log-spaced from 50 µs to
#: 20 s, which brackets everything from a packed single-sample lookup to a
#: cold full-batch encode on a slow machine.
_DEFAULT_BOUNDS = tuple(
    round(base * scale, 9)
    for scale in (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    for base in (5.0, 10.0, 20.0)
)


class LatencyHistogram:
    """Latency distribution as fixed Prometheus buckets, a count and a sum.

    The bucket grid (``bounds``, cumulative in snapshots) is the exposition's
    contract, and fixed memory: a week-long soak costs the same as the first
    request.  Traced observations additionally leave an exemplar — the most
    recent ``(trace_id, value, timestamp)`` per bucket — surfaced in
    snapshots and as OpenMetrics exemplar annotations.

    Parameters
    ----------
    bounds:
        Increasing bucket upper bounds in seconds.  Observations above the
        last bound land in the ``+Inf`` bucket.
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
            if trace_id:
                self._exemplars[index] = {
                    "trace_id": trace_id,
                    "value": seconds,
                    "timestamp": time.time(),
                }

    def snapshot(self) -> Dict[str, object]:
        """``count``, ``sum_seconds`` and the ``buckets``.

        Taken under the lock in one piece, so concurrent :meth:`record`
        calls can never produce a torn view (e.g. a count that disagrees
        with the bucket totals).  ``buckets`` carries the *cumulative*
        per-bound counts in Prometheus histogram form (final bucket
        ``le="+Inf"``); buckets whose range captured a traced request carry
        its most recent exemplar.
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
            return {
                "count": self._count,
                "sum_seconds": self._total,
                "buckets": buckets,
            }


class ModelMetrics:
    """Counters and histograms for one served model.

    Every predict that passes validation is recorded once, by
    :meth:`record_outcome`: an answered one in ``requests`` and ``latency``
    (the latency its caller saw, from validation to response), a failed one
    in ``errors`` — admission sheds, deadline misses, engine-rejected
    payloads and unexpected 500s alike (the tenant quotas count their
    sheds) — and a 504 also in ``deadline_exceeded``.  ``samples`` counts
    the rows the engine scored.
    Besides the end-to-end request latency, the model keeps one
    :class:`LatencyHistogram` per pipeline *stage* (``validate``,
    ``batch_execute``) so ``/metrics`` can answer "where does a request
    spend its time" without a trace file.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.samples = 0
        self.errors = 0
        self.deadline_exceeded = 0
        self.latency = LatencyHistogram()
        self._stages: Dict[str, LatencyHistogram] = {}

    def record_outcome(
        self, status: int, seconds: float, trace_id: Optional[str] = None
    ) -> None:
        """Record the outcome of one predict that passed validation.

        *status* is the HTTP status the request was answered with: 200 adds
        to ``requests`` and records *seconds* (the latency its caller saw)
        in ``latency``, with the request's ``trace_id`` (when sampled) as the
        bucket's exemplar; any other status adds to ``errors``, and a 504
        also to ``deadline_exceeded``.
        """
        if status == 200:
            self.latency.record(seconds, trace_id=trace_id)
        with self._lock:
            if status == 200:
                self.requests += 1
                return
            self.errors += 1
            if status == 504:
                self.deadline_exceeded += 1

    def record_samples(self, num_samples: int) -> None:
        """Record *num_samples* rows the engine scored."""
        with self._lock:
            self.samples += int(num_samples)

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

    def snapshot(self) -> Dict[str, object]:
        # All counters are read in one critical section so a concurrent
        # 504 can never yield a snapshot where ``errors`` counts it and
        # ``deadline_exceeded`` does not.
        with self._lock:
            requests = self.requests
            samples = self.samples
            errors = self.errors
            deadline_exceeded = self.deadline_exceeded
            stages = dict(self._stages)
        return {
            "requests": requests,
            "samples": samples,
            "errors": errors,
            "deadline_exceeded": deadline_exceeded,
            "latency": self.latency.snapshot(),
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
