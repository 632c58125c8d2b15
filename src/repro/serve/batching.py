"""Micro-batching: coalesce single-sample requests into NumPy batches.

A packed engine answers a 64-sample batch in barely more time than a single
sample — the per-call cost is dominated by Python/NumPy dispatch, not by the
XOR+popcount arithmetic.  :class:`BatchScheduler` exploits that: concurrent
callers bring one sample each and the engine runs once per coalesced batch.

Batches run on their callers' threads (caller-runs).  The scheduler starts no
thread and never waits on a timer:

* a ``top_k`` caller that finds no batch running leads one at once, so a
  lone request is a batch of one, scored on the thread that asked for it;
* callers that arrive while a batch runs queue and block;
* when the batch ends its callers return, and the oldest queued caller is
  woken to lead the next batch: itself and up to ``max_batch_size - 1``
  requests queued behind it, oldest first.

One batch runs at a time, so coalescing grows with load, and a queued request
runs in the first batch started after it queued unless ``max_batch_size``
requests are ahead of it.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.obs.trace import SpanContext, Tracer
from repro.serve.engine import PackedInferenceEngine
from repro.serve.metrics import ModelMetrics

# A request's place in the hand-off.  Every change is made under the
# scheduler's lock, and each change a waiting caller acts on wakes it.
_QUEUED = "queued"  # in the scheduler's queue
_TAKEN = "taken"  # in a batch that is about to run or running
_LEADS = "leads"  # woken to lead the next batch
_DONE = "done"  # its batch has ended; ``result`` or ``error`` holds the outcome


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
        "result",
        "error",
        "wake",
        "state",
        "trace",
        "deadline",
        "enqueued",
        "enqueued_wall",
    )

    def __init__(
        self,
        features: np.ndarray,
        top_k: int,
        trace: Optional[SpanContext] = None,
        deadline: Optional[float] = None,
    ):
        self.features = features
        self.top_k = top_k
        #: the outcome, set by the thread that ran the batch before ``state``
        #: turns ``_DONE``: ``(labels, scores)``, or the exception to raise.
        self.result: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.error: Optional[BaseException] = None
        #: built when the caller queues, on the scheduler's lock; notified
        #: when ``state`` changes under the waiting caller (woken to lead,
        #: batch ended, stopped).  A caller that leads at once waits on
        #: nothing and builds none.
        self.wake: Optional[threading.Condition] = None
        self.state = _QUEUED
        self.trace = trace
        #: absolute ``time.monotonic()`` instant after which the caller no
        #: longer wants the answer; ``None`` means no deadline.
        self.deadline = deadline
        self.enqueued = time.perf_counter()
        self.enqueued_wall = time.time()


class BatchScheduler:
    """Run single-sample requests as coalesced batches on their callers' threads.

    Parameters
    ----------
    engine:
        The :class:`PackedInferenceEngine` that scores every batch.
    max_batch_size:
        Upper bound on samples per coalesced batch.
    metrics:
        Optional :class:`ModelMetrics` receiving batch sizes and the
        ``queue_wait`` / ``batch_execute`` stage histograms.  Requests and
        their outcomes are the caller's to record: a failed request raises
        from :meth:`top_k`, and its caller answers (and counts) it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  When a request carries a
        span context, the scheduler emits its ``queue_wait`` span and wraps
        the engine call in a ``batch_execute`` span (parented to the first
        traced request of the coalesced batch), so the batch's spans stitch
        into the caller's trace even when another caller's thread runs the
        batch.  Without one, nothing is traced.
    """

    def __init__(
        self,
        engine: PackedInferenceEngine,
        max_batch_size: int = 64,
        metrics: Optional[ModelMetrics] = None,
        tracer: Optional[Tracer] = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        self._engine = engine
        self.max_batch_size = int(max_batch_size)
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else Tracer()
        self._lock = threading.Lock()
        #: notified when the last batch ends with no caller left to lead.
        self._idle = threading.Condition(self._lock)
        self._pending: Deque[_Request] = deque()
        #: a batch is running, or a woken caller is about to lead one; while
        #: it is set, new callers queue.
        self._leading = False
        self._closed = False

    # ----------------------------------------------------------------- public
    @property
    def queue_depth(self) -> int:
        """Requests currently waiting to be collected into a batch."""
        return len(self._pending)

    def top_k(
        self,
        features: np.ndarray,
        k: int = 5,
        timeout: Optional[float] = None,
        trace: Optional[SpanContext] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Score one sample in a coalesced batch; returns ``(labels, scores)``.

        ``labels`` and ``scores`` are 1-D arrays of length ``k`` (best class
        first).  The batch runs on this caller's thread, or on that of a
        caller queued ahead of it, so ambient span nesting cannot follow the
        request: ``trace`` is the caller's span context, passed explicitly.
        ``deadline`` is an absolute ``time.monotonic()`` instant: a request
        still queued (or mid-batch) past it fails with
        :class:`DeadlineExceededError` instead of being answered.
        ``timeout`` bounds the wait for another caller's batch: past it the
        call raises ``TimeoutError``, and a request still queued leaves the
        queue and is never scored.  A caller that leads a batch returns when
        that batch ends.  Raises ``RuntimeError`` after :meth:`stop`.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 1:
            raise ValueError(
                f"top_k takes a single 1-D feature vector, got shape {features.shape}"
            )
        if k < 1:
            raise ValueError(f"top_k must be >= 1, got {k}")
        request = _Request(features, int(k), trace=trace, deadline=deadline)
        with self._lock:
            if self._closed:
                raise RuntimeError("BatchScheduler is stopped")
            if self._leading:
                request.wake = threading.Condition(self._lock)
                self._pending.append(request)
                self._await_turn(request, timeout)
            else:
                self._leading = True
                request.state = _LEADS
            batch = self._take_batch(request) if request.state == _LEADS else None
        if batch is not None:
            self._lead(batch)
        if request.error is not None:
            raise request.error
        return request.result

    def stop(self, timeout: float = 5.0) -> None:
        """Refuse new requests and let the queued ones run for up to *timeout*.

        Queued requests keep running, batch after batch, as their callers
        take the lead in turn.  Whatever is still queued after *timeout*
        (behind a batch that outlives it) fails with ``RuntimeError`` rather
        than hanging; a batch already running still finishes and answers
        its callers.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._idle.wait_for(lambda: not self._leading, timeout)
            while self._pending:
                request = self._pending.popleft()
                request.error = RuntimeError(
                    "BatchScheduler stopped before the request ran"
                )
                request.state = _DONE
                request.wake.notify()

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --------------------------------------------------------------- internals
    def _await_turn(self, request: _Request, timeout: Optional[float]) -> None:
        """Block (lock held) until *request* is woken to lead or its batch ends.

        On *timeout* a request still queued is withdrawn, so it is never
        scored; one already in a batch is scored but its answer is dropped.
        """
        if not request.wake.wait_for(
            lambda: request.state in (_LEADS, _DONE), timeout
        ):
            if request.state == _QUEUED:
                self._pending.remove(request)
            raise TimeoutError(f"no batch answered the request within {timeout} s")

    def _take_batch(self, leader: _Request) -> List[_Request]:
        """The leader's batch (lock held): it and the oldest queued requests."""
        batch = [leader]
        while self._pending and len(batch) < self.max_batch_size:
            batch.append(self._pending.popleft())
        for request in batch:
            request.state = _TAKEN
        return batch

    def _lead(self, batch: List[_Request]) -> None:
        """Run *batch* on this thread, then wake its callers and pass the lead
        to the oldest queued caller."""
        try:
            self._run_batch(batch)
        except BaseException as error:
            # A failure in the batch (the engine's, or a trace sink's OSError)
            # is raised to each of its unanswered callers, this one included;
            # the lead still passes on.
            for request in batch:
                if request.result is None and request.error is None:
                    request.error = error
        finally:
            with self._lock:
                for request in batch:
                    request.state = _DONE
                    if request.wake is not None:
                        request.wake.notify()
                if self._pending:
                    successor = self._pending.popleft()
                    successor.state = _LEADS
                    successor.wake.notify()
                else:
                    self._leading = False
                    self._idle.notify_all()

    def _run_batch(self, batch: List[_Request]) -> None:
        started = time.perf_counter()
        # Queue wait ends when the leader starts the batch.
        for request in batch:
            waited = started - request.enqueued
            if self._metrics is not None:
                self._metrics.record_stage("queue_wait", waited)
            if request.trace is not None:
                self._tracer.emit_span(
                    "queue_wait", request.trace, request.enqueued_wall, waited
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
                request.error = DeadlineExceededError("request deadline expired in queue")
            batch = [request for request in batch if request not in expired]
            if not batch:
                return
        batch = self._fail_misfits(batch, getattr(self._engine, "num_features", None))
        if not batch:
            return
        # The batch span nests under the first traced request it scores, so
        # it stitches into that trace whichever caller's thread runs it.
        batch_parent = next(
            (request.trace for request in batch if request.trace is not None), None
        )
        span = (
            self._tracer.start_span(
                "batch_execute",
                parent=batch_parent,
                attrs={"batch_size": len(batch)},
            )
            if batch_parent is not None
            else None
        )
        features = np.stack([request.features for request in batch])
        k = max(request.top_k for request in batch)
        if span is not None:
            with span:
                labels, scores = self._engine.top_k(features, k=k)
        else:
            labels, scores = self._engine.top_k(features, k=k)
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
                request.error = DeadlineExceededError("request deadline expired mid-batch")
                continue
            k_i = min(request.top_k, labels.shape[1])
            request.result = (labels[row, :k_i], scores[row, :k_i])

    @staticmethod
    def _fail_misfits(batch: List[_Request], width: Optional[int]) -> List[_Request]:
        """Fail each request whose row is not *width* wide; return the rest.

        Width is the one per-row input the engine rejects, and it would
        reject the whole stacked batch for a single misfit.  An engine that
        declares no ``num_features`` gets every row.
        """
        if width is None:
            return batch
        fitting = []
        for request in batch:
            if request.features.shape[0] == width:
                fitting.append(request)
            else:
                request.error = ValueError(
                    f"features must have {width} columns, "
                    f"got {request.features.shape[0]}"
                )
        return fitting


__all__ = ["BatchScheduler", "DeadlineExceededError"]
