"""Stdlib-only JSON-over-HTTP serving front-end.

No web framework: ``http.server.ThreadingHTTPServer`` gives one thread per
connection, which is all the concurrency the micro-batcher needs — concurrent
``POST /v1/predict`` requests each block in their handler thread while the
:class:`~repro.serve.batching.BatchScheduler` coalesces their samples into one
engine call.

Routes
------
``GET  /v1/healthz``  liveness + model count;
``GET  /v1/readyz``   readiness — 200 while accepting work, 503 once a drain
                      (SIGTERM) has begun, so load balancers stop routing
                      here before in-flight batches finish;
``GET  /v1/models``   registry listing (every registered version);
``GET  /v1/metrics``  per-model counters, latency percentiles, queue depth,
                      and the per-tenant SLO burn-rate block (JSON);
``GET  /metrics``     the same snapshot in Prometheus text exposition;
``POST /v1/predict``  body ``{"model": name?, "features": [...], "top_k": k?,
                      "deadline_ms": ms?}`` — a 1-D ``features`` list is one
                      sample and goes through the micro-batcher; a 2-D list
                      is a client-side batch and runs directly on the engine.
                      ``deadline_ms`` bounds the whole request: past it the
                      server answers 504 instead of returning stale work.

Every error response is machine-readable: ``{"error": message, "code":
slug}`` with ``Retry-After`` on 429/503.  Multi-tenant fleets add two codes
to the taxonomy: ``tenant_rate_limited`` / ``tenant_quota_exceeded`` (429,
per-tenant admission — see :mod:`repro.serve.tenancy`).  The full retry
taxonomy (which codes mean *back off*, *retry*, or *give up*) is documented
in ``docs/robustness.md``.

Example::

    curl -s localhost:8080/v1/predict \\
      -d '{"features": [0.1, 0.2, 0.3, 0.4]}'
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import signal
import threading
import time
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.slo import SLOConfig, SLOEngine
from repro.obs.trace import NULL_SPAN, Tracer, get_tracer
from repro.serve.batching import (
    BatchScheduler,
    DeadlineExceededError,
    SchedulerOverloadedError,
)
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.tenancy import (
    TenantAdmissionError,
    TenantQuotas,
    retry_after_header,
)
from repro.utils.validation import check_finite

#: Default machine-readable error codes by status; a more specific cause
#: (``draining``, ``tenant_rate_limited``, ...) overrides these at raise sites.
_DEFAULT_CODES = {
    400: "bad_request",
    404: "not_found",
    413: "payload_too_large",
    429: "overloaded",
    500: "internal",
    503: "unavailable",
    504: "deadline_exceeded",
}

#: Statuses that do not spend the tenant's error budget: the client sent a
#: request the server could never have answered (malformed body, unknown
#: model, oversized payload), so counting it against the SLO would let one
#: buggy client page the on-call for a healthy service.
_SLO_EXEMPT_STATUSES = frozenset({400, 404, 413})


class RequestError(Exception):
    """A request-level error carrying an HTTP status plus wire metadata.

    ``code`` is the machine-readable slug clients branch on (defaulting by
    status from :data:`_DEFAULT_CODES`); ``retry_after`` is the
    ``Retry-After`` header value in seconds, defaulted to 1 for the
    back-off statuses (429/503) so every shed or transient failure tells
    clients *when* to come back, not just that they should.
    """

    def __init__(
        self,
        status: int,
        message: str,
        code: Optional[str] = None,
        retry_after: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code or _DEFAULT_CODES.get(status, "error")
        if retry_after is None and status in (429, 503):
            retry_after = 1
        self.retry_after = retry_after


class _PredictionCache:
    """A small thread-safe LRU of ``(labels, scores)`` prediction results.

    Keys carry the model *version*, so promoting a new version naturally
    invalidates the superseded entries (they simply age out).  Values are
    the result arrays, not response dictionaries — the response is rebuilt
    per request so latency numbers stay honest.
    """

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[tuple, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, key: tuple) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: tuple, value: Tuple[np.ndarray, np.ndarray]) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class ServeApp:
    """The serving application: registry + metrics + per-model schedulers.

    Everything runs in one process: batches execute on the registry's
    engines, and the registry's LRU (``max_resident``) is the one cap on
    how many models stay loaded.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` to resolve model names against.
    metrics:
        Optional shared :class:`MetricsRegistry` (created when omitted).
    max_batch_size:
        Micro-batch cap applied to every model's scheduler.
    cache_size:
        Entry cap for the request-level LRU prediction cache keyed by
        ``(model, version, top_k, payload hash)``; ``0`` disables caching.
    max_queue_depth:
        Admission bound on each model's scheduler queue: requests beyond it
        are shed with 429 + ``Retry-After`` instead of queueing unboundedly
        (``None`` keeps the legacy unbounded behaviour).
    max_concurrent:
        Per-model cap on requests in flight (scheduler *and* direct 2-D
        paths); excess requests are shed with 429.  ``None`` disables.
    tenant_quotas:
        Optional :class:`~repro.serve.tenancy.TenantQuotas` gating every
        predict on its tenant (model name): an empty token bucket answers
        429 ``tenant_rate_limited``, a full concurrency quota 429
        ``tenant_quota_exceeded`` — both with a ``Retry-After`` hint.
    default_deadline_ms:
        Deadline applied to requests that do not send ``deadline_ms``
        themselves; ``None`` means no implicit deadline.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  Each sampled
        ``/v1/predict`` request becomes one trace: a ``request`` root span
        with ``validate`` / ``cache_lookup`` / ``respond`` children here,
        stitched to the scheduler's ``queue_wait`` / ``batch_execute``
        spans, which the collector thread records.  Defaults to the
        process-wide tracer (disabled unless configured).
    slo_config:
        Optional :class:`~repro.obs.slo.SLOConfig` with per-tenant
        availability/latency objectives (usually loaded from the
        ``--slo-config`` JSON file).  The app always runs an
        :class:`~repro.obs.slo.SLOEngine` — omitting the config applies the
        fleet-default objective to every tenant.  Every completed predict
        is recorded per tenant (model name); client faults (400/404/413)
        are exempt.  The engine's snapshot is the ``slo`` block of
        ``/v1/metrics`` and burn-rate alerts log on ``repro.serve.slo``.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Optional[MetricsRegistry] = None,
        max_batch_size: int = 64,
        cache_size: int = 1024,
        max_queue_depth: Optional[int] = None,
        max_concurrent: Optional[int] = None,
        tenant_quotas: Optional[TenantQuotas] = None,
        default_deadline_ms: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        slo_config: Optional[SLOConfig] = None,
    ):
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.registry = registry
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else get_tracer()
        self.max_concurrent = max_concurrent
        self.tenant_quotas = tenant_quotas
        self.default_deadline_ms = default_deadline_ms
        self.slo = SLOEngine(slo_config)
        self._batch_config = dict(
            max_batch_size=max_batch_size,
            max_queue_depth=max_queue_depth,
        )
        self._schedulers: Dict[str, BatchScheduler] = {}
        self._lock = threading.Lock()
        self._cache = _PredictionCache(cache_size) if cache_size else None
        self._admission: Dict[str, threading.BoundedSemaphore] = {}
        self._draining = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ----------------------------------------------------------------- routes
    def healthz(self) -> dict:
        return {"status": "ok", "models": len(self.registry.names())}

    def readyz(self) -> Tuple[int, dict]:
        """Readiness: ``(200, ...)`` while accepting work, ``(503, ...)``
        once a drain has begun (load balancers stop routing here while
        in-flight batches finish)."""
        if self._draining:
            return 503, {"status": "draining", "inflight": self._inflight}
        return 200, {"status": "ready", "models": len(self.registry.names())}

    def models(self) -> dict:
        return {"models": self.registry.list_models()}

    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        if self._cache is not None:
            snapshot["prediction_cache"] = {
                "entries": len(self._cache),
                "max_entries": self._cache.max_entries,
            }
        with self._lock:
            schedulers = dict(self._schedulers)
        if schedulers:
            snapshot["schedulers"] = {
                name: {"queue_depth": scheduler.queue_depth}
                for name, scheduler in schedulers.items()
            }
        if self.tenant_quotas is not None:
            snapshot["tenancy"] = self.tenant_quotas.snapshot()
        snapshot["slo"] = self.slo.snapshot()
        return snapshot

    def predict(self, payload: dict) -> dict:
        """Handle one ``POST /v1/predict`` payload.

        Sampled requests become one trace: this opens the ``request`` root
        span (the sampling decision for the whole tree) and every stage
        below — in this thread or the scheduler's collector thread —
        stitches under it.  Exceptions mark the root span with an ``error``
        attribute on the way out.
        """
        with self._track_inflight():
            with self.tracer.start_span(
                "request", attrs={"route": "/v1/predict"}
            ) as root:
                return self._predict(payload, root)

    @contextlib.contextmanager
    def _track_inflight(self):
        """Count requests between admission and response so :meth:`drain`
        knows when the last in-flight batch has finished.

        The draining check and the count share one lock, so a request is
        either refused with 503 or counted before :meth:`drain` stops the
        schedulers — never admitted into a scheduler that is stopping.
        """
        with self._inflight_cv:
            if self._draining:
                raise RequestError(
                    503, "server is draining; retry another replica", code="draining"
                )
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_cv:
                self._inflight -= 1
                self._inflight_cv.notify_all()

    @staticmethod
    def _validate_predict_payload(
        payload: dict,
        registry: ModelRegistry,
        default_deadline_ms: Optional[float] = None,
    ) -> Tuple[str, int, np.ndarray, Optional[float]]:
        """Parse and validate one predict payload →
        ``(name, top_k, features, absolute monotonic deadline or None)``."""
        if not isinstance(payload, dict):
            raise RequestError(400, "request body must be a JSON object")
        name = payload.get("model")
        if name is None:
            names = registry.names()
            if len(names) != 1:
                raise RequestError(
                    400,
                    "the 'model' field is required when "
                    f"{len(names)} models are registered",
                )
            name = names[0]
        if name not in registry:
            raise RequestError(404, f"unknown model {name!r}")
        top_k = payload.get("top_k", 1)
        if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
            raise RequestError(400, "'top_k' must be a positive integer")
        try:
            features = np.asarray(payload["features"], dtype=np.float64)
        except KeyError:
            raise RequestError(400, "the 'features' field is required")
        except (TypeError, ValueError):
            # Covers non-numeric entries and ragged rows (NumPy refuses the
            # inhomogeneous nesting) — a clean 400, never a stack trace.
            raise RequestError(
                400, "'features' must be a rectangular numeric array"
            )
        if features.ndim not in (1, 2):
            raise RequestError(
                400, f"'features' must be 1-D or 2-D, got {features.ndim}-D"
            )
        try:
            check_finite(features, "'features'")
        except ValueError as error:
            raise RequestError(400, str(error))
        deadline_ms = payload.get("deadline_ms", default_deadline_ms)
        deadline = None
        if deadline_ms is not None:
            if (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                raise RequestError(400, "'deadline_ms' must be a positive number")
            deadline = time.monotonic() + float(deadline_ms) / 1e3
        return name, top_k, features, deadline

    def _predict(self, payload: dict, root) -> dict:
        sampled = root.sampled
        tracer = self.tracer
        validate_started = time.perf_counter()
        try:
            with tracer.start_span("validate") if sampled else NULL_SPAN:
                name, top_k, features, deadline = self._validate_predict_payload(
                    payload, self.registry, self.default_deadline_ms
                )
        except RequestError as error:
            # Validation failures happen before the tenant name is resolved;
            # attribute the access-log line to the *requested* model so bad
            # traffic is still traceable to its sender.
            requested = payload.get("model") if isinstance(payload, dict) else None
            if isinstance(requested, str):
                error.tenant = requested
            if sampled:
                error.trace_id = root.trace_id
            raise
        started = time.perf_counter()
        model_metrics = self.metrics.for_model(name)
        model_metrics.record_stage("validate", started - validate_started)
        root.set("model", name)
        root.set("rows", int(features.shape[0]) if features.ndim == 2 else 1)
        # Tenant admission is the outer gate: the per-tenant token bucket and
        # concurrency quota shed *before* the request can touch the shared
        # scheduler capacity the other tenants are using.
        try:
            lease = None
            if self.tenant_quotas is not None:
                try:
                    lease = self.tenant_quotas.admit(name)
                except TenantAdmissionError as error:
                    model_metrics.record_shed()
                    model_metrics.record_error()
                    raise RequestError(
                        429,
                        str(error),
                        code=error.code,
                        retry_after=retry_after_header(error.retry_after),
                    )
            try:
                slot = self._admission_slot(name)
                if slot is not None and not slot.acquire(blocking=False):
                    model_metrics.record_shed()
                    model_metrics.record_error()
                    raise RequestError(
                        429,
                        f"model {name!r} is at its concurrency limit "
                        f"({self.max_concurrent} in flight)",
                        code="overloaded",
                    )
                try:
                    response = self._execute(
                        name, top_k, features, deadline, model_metrics, started, root
                    )
                finally:
                    if slot is not None:
                        slot.release()
            finally:
                if lease is not None:
                    lease.release()
        except RequestError as error:
            # Stamp the tenant / trace onto the error so the access log can
            # carry them even though the response body never sees the model.
            error.tenant = name
            if sampled:
                error.trace_id = root.trace_id
            if error.status not in _SLO_EXEMPT_STATUSES:
                self.slo.record(
                    name, ok=False, latency_s=time.perf_counter() - started
                )
            raise
        self.slo.record(name, ok=True, latency_s=time.perf_counter() - started)
        return response

    def _admission_slot(self, name: str) -> Optional[threading.BoundedSemaphore]:
        if self.max_concurrent is None:
            return None
        with self._lock:
            slot = self._admission.get(name)
            if slot is None:
                slot = threading.BoundedSemaphore(self.max_concurrent)
                self._admission[name] = slot
            return slot

    def _execute(
        self,
        name: str,
        top_k: int,
        features: np.ndarray,
        deadline: Optional[float],
        model_metrics,
        started: float,
        root,
    ) -> dict:
        sampled = root.sampled
        tracer = self.tracer
        cache_key = None
        if self._cache is not None:
            lookup_started = time.perf_counter()
            with tracer.start_span("cache_lookup") if sampled else NULL_SPAN:
                cache_key = (
                    name,
                    self.registry.default_version(name),
                    top_k,
                    features.shape,
                    hashlib.sha1(features.tobytes()).hexdigest(),
                )
                cached = self._cache.get(cache_key)
            model_metrics.record_stage(
                "cache_lookup", time.perf_counter() - lookup_started
            )
            if cached is not None:
                model_metrics.record_cache_hit()
                root.set("cache", "hit")
                labels, scores = cached
                return self._respond(
                    name, labels, scores, top_k, started, root, cached=True
                )
            model_metrics.record_cache_miss()

        try:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError("deadline expired before execution")
            if features.ndim == 1:
                # The request crosses into the collector thread here, so the
                # root context is handed over explicitly.
                labels, scores = self.scheduler_for(name).top_k(
                    features, k=top_k, trace=root.context, deadline=deadline
                )
                labels, scores = labels[None, :], scores[None, :]
                batched = True
            else:
                labels, scores = self.engine_for(name).top_k(features, k=top_k)
                batched = False
            if deadline is not None and time.monotonic() >= deadline:
                # The answer exists but arrived late — a deadline is a
                # promise, so the caller gets 504, not stale work.
                raise DeadlineExceededError("request completed after its deadline")
        except SchedulerOverloadedError as error:
            model_metrics.record_shed()
            model_metrics.record_error()
            raise RequestError(429, str(error), code="overloaded")
        except DeadlineExceededError as error:
            model_metrics.record_deadline()
            model_metrics.record_error()
            raise RequestError(504, str(error), code="deadline_exceeded")
        except ValueError as error:
            # Single rows fail inside the scheduler, which already counted them.
            if features.ndim != 1:
                model_metrics.record_error()
            raise RequestError(400, str(error))
        elapsed = time.perf_counter() - started
        # Scheduler batches already record engine latency; the request-level
        # numbers below include queueing, which is what callers experience.
        if not batched:
            model_metrics.record_request(
                features.shape[0],
                elapsed,
                trace_id=root.trace_id if sampled else None,
            )
        if cache_key is not None:
            self._cache.put(cache_key, (labels, scores))
        return self._respond(name, labels, scores, top_k, started, root)

    def _respond(
        self,
        name: str,
        labels: np.ndarray,
        scores: np.ndarray,
        top_k: int,
        started: float,
        root,
        cached: bool = False,
    ) -> dict:
        """Build the response under a ``respond`` span; sampled requests get
        their ``trace_id`` echoed so clients can find their trace."""
        with self.tracer.start_span("respond") if root.sampled else NULL_SPAN:
            response = self._build_response(
                name, labels, scores, top_k, started, cached=cached
            )
            if root.sampled:
                response["trace_id"] = root.trace_id
        return response

    @staticmethod
    def _build_response(
        name: str,
        labels: np.ndarray,
        scores: np.ndarray,
        top_k: int,
        started: float,
        cached: bool = False,
    ) -> dict:
        response = {
            "model": name,
            "labels": [int(row[0]) for row in labels],
            "latency_ms": (time.perf_counter() - started) * 1e3,
        }
        if cached:
            response["cached"] = True
        if top_k > 1:
            response["top_k_labels"] = labels.astype(int).tolist()
            response["top_k_scores"] = scores.astype(float).tolist()
        else:
            response["scores"] = [float(row[0]) for row in scores]
        return response

    # ------------------------------------------------------------- schedulers
    def scheduler_for(self, name: str) -> BatchScheduler:
        """The (lazily created) micro-batch scheduler for model *name*."""
        with self._lock:
            scheduler = self._schedulers.get(name)
            if scheduler is None:
                scheduler = BatchScheduler(
                    lambda: self.engine_for(name),
                    metrics=self.metrics.for_model(name),
                    tracer=self.tracer,
                    **self._batch_config,
                )
                self._schedulers[name] = scheduler
            return scheduler

    def engine_for(self, name: str):
        """The batch executor for *name*: the registry's promoted engine."""
        return self.registry.get(name)

    # ------------------------------------------------------------------- drain
    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Flip readiness off and start refusing new predict requests.

        Idempotent and instant — the actual teardown happens in
        :meth:`drain` once in-flight requests finish.
        """
        self._draining = True

    def drain(self, grace_seconds: float = 10.0) -> None:
        """Graceful shutdown: refuse new work, wait out in-flight requests
        (up to *grace_seconds*), then :meth:`close` everything.

        The SIGTERM sequence: ``begin_drain`` flips ``/v1/readyz`` to 503 so
        the balancer stops routing here, requests already admitted keep
        their batches, and only then do the schedulers stop.
        """
        self.begin_drain()
        deadline = time.monotonic() + float(grace_seconds)
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:  # pragma: no cover - stuck in-flight work
                    break
                self._inflight_cv.wait(timeout=remaining)
        self.close()

    def close(self) -> None:
        """Stop every model's scheduler (queued requests still run)."""
        with self._lock:
            schedulers, self._schedulers = list(self._schedulers.values()), {}
        for scheduler in schedulers:
            scheduler.stop()


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the :class:`ServeApp` on ``self.server.app``."""

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: ``send_response`` flushes the headers and the body
    #: follows as a second small segment; with Nagle on, that segment waits
    #: for the client's delayed ACK (~40 ms per keep-alive response).
    disable_nagle_algorithm = True
    #: Maximum accepted request body (guards against unbounded reads).
    max_body_bytes = 64 * 1024 * 1024

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Stdlib diagnostics (malformed request lines, broken pipes) used to
        # be silently discarded here; route them through the access logger
        # instead so ``--log-level`` surfaces them.
        logger = getattr(self.server, "access_logger", None)
        if logger is not None:
            logger.warning(format % args)
        elif getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def log_request(self, code="-", size="-") -> None:
        # The stdlib per-request line is superseded by the structured access
        # log below (which adds duration and survives log aggregation).
        pass

    def _log_access(
        self,
        method: str,
        status: int,
        started: float,
        code: Optional[str] = None,
        tenant: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        """One structured line per answered request (when logging is on).

        Error responses append their machine-readable ``code=`` so shed
        (429/overloaded) and timed-out (504/deadline_exceeded) requests are
        greppable in aggregated logs without parsing response bodies.
        Predicts that resolved a model append ``tenant=``, and sampled
        requests append ``trace_id=`` — the same ID the trace file and the
        metrics exemplars carry, so one grep pivots between all three.
        """
        logger = getattr(self.server, "access_logger", None)
        if logger is None or not logger.isEnabledFor(logging.INFO):
            return
        suffix = "" if code is None else f" code={code}"
        if tenant is not None:
            suffix += f" tenant={tenant}"
        if trace_id is not None:
            suffix += f" trace_id={trace_id}"
        logger.info(
            "method=%s path=%s status=%d dur_ms=%.3f client=%s%s",
            method,
            self.path,
            status,
            (time.perf_counter() - started) * 1e3,
            self.client_address[0],
            suffix,
        )

    # ------------------------------------------------------------------ verbs
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        started = time.perf_counter()
        try:
            if self.path == "/v1/healthz":
                status = self._send_json(200, self.app.healthz())
            elif self.path == "/v1/readyz":
                ready_status, body = self.app.readyz()
                status = self._send_json(ready_status, body)
            elif self.path == "/v1/models":
                status = self._send_json(200, self.app.models())
            elif self.path == "/v1/metrics":
                status = self._send_json(200, self.app.metrics_snapshot())
            elif self.path == "/metrics":
                status = self._send_text(
                    200,
                    render_prometheus(self.app.metrics_snapshot()),
                    _PROMETHEUS_CONTENT_TYPE,
                )
            else:
                status = self._send_json(
                    404, {"error": f"no route {self.path!r}", "code": "not_found"}
                )
        except Exception:  # pragma: no cover - defensive
            status = self._send_internal_error()
        self._log_access("GET", status, started)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        started = time.perf_counter()
        code: Optional[str] = None
        tenant: Optional[str] = None
        trace_id: Optional[str] = None
        try:
            if self.path != "/v1/predict":
                raise RequestError(404, f"no route {self.path!r}")
            payload = self._read_json()
            response = self.app.predict(payload)
            tenant = response.get("model")
            trace_id = response.get("trace_id")
            status = self._send_json(200, response)
        except RequestError as error:
            code = error.code
            tenant = getattr(error, "tenant", None)
            trace_id = getattr(error, "trace_id", None)
            status = self._send_json(
                error.status,
                {"error": str(error), "code": code},
                retry_after=error.retry_after,
            )
        except Exception:
            # Unexpected failures answer with a fixed JSON body: no stack
            # trace, no exception internals — those go to the server log
            # (when verbose), never over the wire.
            code = "internal"
            status = self._send_internal_error()
        self._log_access(
            "POST", status, started, code=code, tenant=tenant, trace_id=trace_id
        )

    def _send_internal_error(self) -> int:
        import traceback

        logger = getattr(self.server, "access_logger", None)
        if logger is not None:  # pragma: no cover - unexpected-failure path
            logger.exception("unhandled error serving %s", self.path)
        elif getattr(self.server, "verbose", False):  # pragma: no cover
            traceback.print_exc()
        return self._send_json(
            500, {"error": "internal server error", "code": "internal"}
        )

    # ---------------------------------------------------------------- helpers
    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise RequestError(400, "a JSON request body is required")
        if length > self.max_body_bytes:
            raise RequestError(413, "request body too large")
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except json.JSONDecodeError as error:
            raise RequestError(400, f"invalid JSON body: {error}")

    def _send_json(
        self, status: int, payload: dict, retry_after: Optional[int] = None
    ) -> int:
        body = json.dumps(payload).encode("utf-8")
        return self._send_body(
            status, body, "application/json", retry_after=retry_after
        )

    def _send_text(self, status: int, text: str, content_type: str) -> int:
        return self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        retry_after: Optional[int] = None,
    ) -> int:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(int(retry_after)))
        if status >= 400:
            # The request body may not have been (fully) read on error paths;
            # on a keep-alive connection the leftover bytes would be parsed as
            # the next request line, so drop the connection instead.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        return status


class _Server(ThreadingHTTPServer):
    #: Listen backlog.  The stdlib default of 5 overflows under a burst of
    #: connects, and each dropped SYN costs the client a ~1 s retransmit.
    request_queue_size = 128


def create_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
    log_level: Optional[str] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server bound to ``host:port``.

    Pass ``port=0`` to bind an ephemeral port (``server.server_address[1]``
    reports the one chosen) — the integration tests rely on this.

    ``log_level`` (``"debug"`` / ``"info"`` / ``"warning"`` / ...) enables
    the structured access log on the ``repro.serve.access`` logger: one
    ``method= path= status= dur_ms= client=`` line per answered request,
    plus stdlib HTTP diagnostics as warnings.  ``None`` keeps the server
    silent (the default, and what the benchmarks want).
    """
    server = _Server((host, port), _Handler)
    server.app = app  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.access_logger = None  # type: ignore[attr-defined]
    if log_level is not None:
        level = getattr(logging, str(log_level).upper(), None)
        if not isinstance(level, int):
            raise ValueError(f"unknown log level {log_level!r}")
        logger = logging.getLogger("repro.serve.access")
        logger.setLevel(level)
        if not logger.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(
                logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s")
            )
            logger.addHandler(handler)
        server.access_logger = logger  # type: ignore[attr-defined]
    return server


def run_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    verbose: bool = False,
    log_level: Optional[str] = None,
) -> None:  # pragma: no cover - blocking loop, exercised manually / by CLI
    """Run the server until interrupted, then drain and flush schedulers.

    ``SIGTERM`` triggers a graceful drain: ``/v1/readyz`` flips to 503 so a
    load balancer stops routing here, new ``/v1/predict`` calls answer 503
    ``draining``, in-flight requests finish, and only then do the
    schedulers stop.
    """
    server = create_server(
        app, host=host, port=port, verbose=verbose, log_level=log_level
    )

    def _handle_sigterm(signum, frame):  # noqa: ARG001 - signal signature
        app.begin_drain()
        # shutdown() blocks until serve_forever returns, so it must run off
        # the signal-handler (main) thread to avoid deadlocking the loop.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handler = signal.signal(signal.SIGTERM, _handle_sigterm)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro.serve listening on http://{bound_host}:{bound_port}")
    for row in app.registry.list_models():
        marker = "*" if row["default"] else " "
        print(f"  {marker} {row['name']} v{row['version']} ({row['strategy']})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
        app.drain()


__all__ = ["ServeApp", "RequestError", "create_server", "run_server"]
