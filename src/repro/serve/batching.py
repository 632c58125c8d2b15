"""Micro-batching: coalesce single-sample requests into NumPy batches.

A packed engine answers a 64-sample batch in barely more time than a single
sample — the per-call cost is dominated by Python/NumPy dispatch, not by the
XOR+popcount arithmetic.  :class:`BatchScheduler` exploits that: concurrent
callers submit one sample each and a collector thread runs the engine once
per coalesced batch.

The collector is work-conserving — it never waits on a timer:

* ``submit`` enqueues a request and returns a ``concurrent.futures.Future``;
* ``predict`` / ``top_k`` are the synchronous conveniences (submit + wait);
* one collector thread owns the queue: it blocks for the first request,
  takes whatever else is already queued (up to ``max_batch_size``) and runs
  that batch itself.  One batch is in flight at a time, so requests that
  arrive while it runs queue up and form the next batch — a lone request
  runs at once, and coalescing grows with load.

The engine may be passed directly or as a zero-argument callable resolved per
batch — the latter is how the server stays correct across registry hot-swaps.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.obs.trace import SpanContext, Tracer
from repro.serve.engine import PackedInferenceEngine
from repro.serve.metrics import ModelMetrics

EngineSource = Union[PackedInferenceEngine, Callable[[], PackedInferenceEngine]]


class DeadlineExceededError(RuntimeError):
    """The request's deadline expired before its answer was ready.

    Deadlines are absolute ``time.monotonic()`` instants.  The scheduler
    fails a request whose deadline passes while it queues or while its batch
    runs, rather than handing back an answer the caller stopped waiting for.
    The HTTP layer answers 504: the work is dead, not retryable.
    """


class _Request:
    __slots__ = (
        "features",
        "top_k",
        "future",
        "trace",
        "deadline",
        "enqueued",
        "enqueued_wall",
    )

    def __init__(
        self,
        features: np.ndarray,
        top_k: int,
        future: Future,
        trace: Optional[SpanContext] = None,
        deadline: Optional[float] = None,
    ):
        self.features = features
        self.top_k = top_k
        self.future = future
        self.trace = trace
        #: absolute ``time.monotonic()`` instant after which the caller no
        #: longer wants the answer; ``None`` means no deadline.
        self.deadline = deadline
        #: perf-counter enqueue time; consumed (set to None) once the
        #: queue-wait has been recorded, so retry re-runs never double-count.
        self.enqueued = time.perf_counter()
        self.enqueued_wall = time.time()


class BatchScheduler:
    """Queue single-sample requests and run them as coalesced batches.

    Parameters
    ----------
    engine:
        A :class:`PackedInferenceEngine`, or a zero-argument callable
        returning one (resolved once per batch; enables hot-swapping).
    max_batch_size:
        Upper bound on samples per coalesced batch.
    metrics:
        Optional :class:`ModelMetrics` receiving batch sizes and the
        ``queue_wait`` / ``batch_execute`` stage histograms.  Requests and
        their outcomes are the caller's to record: a failed request's future
        carries the error, and the caller answers (and counts) it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When a submitted request
        carries a span context, the scheduler emits its ``queue_wait`` span
        and wraps the engine call in a ``batch_execute`` span (parented to
        the first traced request of the coalesced batch), so the batch's
        spans stitch into the caller's trace across the hand-off to the
        collector thread.  Without one, nothing is traced.
    """

    def __init__(
        self,
        engine: EngineSource,
        max_batch_size: int = 64,
        metrics: Optional[ModelMetrics] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._resolve_engine = engine if callable(engine) else (lambda: engine)
        self.max_batch_size = int(max_batch_size)
        self._queue: "queue.Queue[Optional[_Request]]" = queue.Queue()
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else Tracer()
        self._closed = False
        self._collector = threading.Thread(
            target=self._collect_loop, name="serve-collector", daemon=True
        )
        self._collector.start()

    # ----------------------------------------------------------------- public
    def submit(
        self,
        features: np.ndarray,
        top_k: int = 1,
        trace: Optional[SpanContext] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Enqueue one sample; the future resolves to ``(labels, scores)``.

        ``labels`` and ``scores`` are 1-D arrays of length ``top_k`` (best
        class first).  ``trace`` is the caller's span context (its request
        crosses into the collector thread here, so ambient nesting cannot
        follow it).  ``deadline`` is an absolute ``time.monotonic()`` instant:
        a request still queued (or mid-batch) past it fails with
        :class:`DeadlineExceededError` instead of being scored.  Raises
        ``RuntimeError`` after :meth:`stop`.
        """
        if self._closed:
            raise RuntimeError("BatchScheduler is stopped")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValueError(
                f"submit takes a single 1-D feature vector, got shape {features.shape}"
            )
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        future: Future = Future()
        self._queue.put(
            _Request(features, int(top_k), future, trace=trace, deadline=deadline)
        )
        return future

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be collected into a batch."""
        return self._queue.qsize()

    def predict(self, features: np.ndarray, timeout: Optional[float] = None) -> int:
        """Synchronous single-sample prediction through the micro-batcher."""
        labels, _ = self.submit(features, top_k=1).result(timeout=timeout)
        return int(labels[0])

    def top_k(
        self,
        features: np.ndarray,
        k: int = 5,
        timeout: Optional[float] = None,
        trace: Optional[SpanContext] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Synchronous single-sample top-k through the micro-batcher."""
        future = self.submit(features, top_k=k, trace=trace, deadline=deadline)
        return future.result(timeout=timeout)

    def stop(self, timeout: float = 5.0) -> None:
        """Run what is queued, then stop the collector.

        Requests queued before the stop are executed; anything the collector
        has not taken within *timeout* (including requests racing a
        concurrent ``submit``) has its future failed rather than left
        hanging.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._collector.join(timeout=timeout)
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not None and leftover.future.set_running_or_notify_cancel():
                leftover.future.set_exception(
                    RuntimeError("BatchScheduler stopped before the request ran")
                )
        if self._collector.is_alive():
            # A batch outlived the timeout and the drain above took the stop
            # sentinel; hand it back so the collector exits after that batch.
            self._queue.put(None)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --------------------------------------------------------------- internals
    def _collect_loop(self) -> None:
        stopping = False
        while not stopping:
            request = self._queue.get()
            if request is None:
                return
            batch = [request]
            while len(batch) < self.max_batch_size:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    # Shutdown requested: run what we have, then exit.
                    stopping = True
                    break
                batch.append(item)
            # A caller may cancel its future while it queues; the rest can
            # no longer be cancelled once marked running.
            batch = [
                request
                for request in batch
                if request.future.set_running_or_notify_cancel()
            ]
            if not batch:
                continue
            try:
                self._run_batch(batch)
            except Exception as error:
                # Every batch runs on this thread, so it must outlive a
                # failure outside the engine call (a trace sink's OSError,
                # say): fail this batch's callers and keep serving.
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(error)

    def _run_batch(self, batch: List[_Request]) -> None:
        started = time.perf_counter()
        # Queue wait ends when the collector starts the batch.  Recorded
        # exactly once per request (``enqueued`` is consumed), so the
        # per-request retry path below cannot double-count.
        batch_parent: Optional[SpanContext] = None
        for request in batch:
            if request.enqueued is None:
                continue
            waited = started - request.enqueued
            if self._metrics is not None:
                self._metrics.record_stage("queue_wait", waited)
            if request.trace is not None:
                self._tracer.emit_span(
                    "queue_wait", request.trace, request.enqueued_wall, waited
                )
                if batch_parent is None:
                    batch_parent = request.trace
            request.enqueued = None
        if batch_parent is None:
            # Retry path: keep nesting under the first traced request so the
            # batch span still stitches into a trace.
            batch_parent = next(
                (request.trace for request in batch if request.trace is not None), None
            )
        # Shed requests whose deadline already passed while they queued —
        # scoring them would be dead work the caller has stopped waiting for.
        now = time.monotonic()
        expired = [
            request
            for request in batch
            if request.deadline is not None and now >= request.deadline
        ]
        if expired:
            for request in expired:
                request.future.set_exception(
                    DeadlineExceededError("request deadline expired in queue")
                )
            batch = [request for request in batch if request not in expired]
            if not batch:
                return
        span = (
            self._tracer.start_span(
                "batch_execute",
                parent=batch_parent,
                attrs={"batch_size": len(batch)},
            )
            if batch_parent is not None
            else None
        )
        try:
            engine = self._resolve_engine()
            features = np.stack([request.features for request in batch])
            k = max(request.top_k for request in batch)
            if span is not None:
                with span:
                    labels, scores = engine.top_k(features, k=k)
            else:
                labels, scores = engine.top_k(features, k=k)
        except BaseException as error:
            # One malformed request (e.g. wrong feature width) must not poison
            # the whole coalesced batch: re-run each request individually so
            # only the offending callers see the error.
            if len(batch) > 1:
                for request in batch:
                    self._run_batch([request])
                return
            batch[0].future.set_exception(error)
            return
        elapsed = time.perf_counter() - started
        if self._metrics is not None:
            self._metrics.record_batch(len(batch))
            self._metrics.record_stage("batch_execute", elapsed)
        finished = time.monotonic()
        for row, request in enumerate(batch):
            if request.deadline is not None and finished >= request.deadline:
                # The answer exists but arrived late; a deadline is a
                # *promise* ("zero requests outlive their deadline"), so the
                # caller gets 504, not a stale success.
                request.future.set_exception(
                    DeadlineExceededError("request deadline expired mid-batch")
                )
                continue
            k_i = min(request.top_k, labels.shape[1])
            request.future.set_result((labels[row, :k_i], scores[row, :k_i]))


__all__ = ["BatchScheduler", "DeadlineExceededError"]
