"""Stdlib-only JSON-over-HTTP serving front-end.

No web framework: ``http.server.ThreadingHTTPServer`` gives one thread per
connection, which is all the concurrency the micro-batcher needs — the
:class:`~repro.serve.batching.BatchScheduler` coalesces the samples of
concurrent ``POST /v1/predict`` requests into one engine call, which one of
their handler threads runs while the others wait.

The handler owns its request loop: :meth:`_Handler.handle_one_request` reads
the request line and header fields itself and keeps only what the routes
read (method, path, version, ``Content-Length``, ``Connection`` and
``Expect``), with the stdlib's limits, keep-alive rules and error answers;
the stdlib's email-based header parser never runs.  Every routed answer is
one write: status line, header fields and body in one ``sendall``.

Routes
------
``GET  /v1/healthz``  liveness + model count;
``GET  /v1/readyz``   readiness — 200 while accepting work, 503 once a drain
                      (SIGTERM) has begun, so load balancers stop routing
                      here before in-flight batches finish;
``GET  /v1/models``   one row per model: name, path, strategy, dimension,
                      class count and ensemble size;
``GET  /metrics``     per-model counters, latency histograms, queue depths
                      and tenant admission counters in Prometheus text
                      exposition;
``POST /v1/predict``  body ``{"model": name?, "features": [...], "top_k": k?,
                      "deadline_ms": ms?}`` — a 1-D ``features`` list is one
                      sample and goes through the micro-batcher; a 2-D list
                      is a client-side batch and runs directly on the engine.
                      ``deadline_ms`` bounds the whole request: past it the
                      server answers 504 instead of returning stale work.

Every error response is machine-readable: ``{"error": message, "code":
slug}`` with ``Retry-After`` on 429/503.  The one admission limit is
:class:`~repro.serve.tenancy.TenantQuotas`, keyed by model name; its two
429 codes are ``tenant_rate_limited`` and ``tenant_quota_exceeded``.  The
full retry taxonomy (which codes mean *back off*, *retry*, or *give up*) is
documented in ``docs/robustness.md``.

Example::

    curl -s localhost:8080/v1/predict \\
      -d '{"features": [0.1, 0.2, 0.3, 0.4]}'
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import re
import signal
import sys
import threading
import time
from http import HTTPStatus
from http.client import _MAXHEADERS, _MAXLINE
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import NULL_SPAN, Tracer
from repro.serve.batching import BatchScheduler, DeadlineExceededError
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
    500: "internal",
    503: "unavailable",
    504: "deadline_exceeded",
}

#: The request header fields the routes read, by lower-case name; every
#: other field is read off the socket and dropped.
_KEPT_FIELDS = (b"content-length", b"connection", b"expect")
#: A header field's name and its colon, as the email parser behind the
#: stdlib's header read matches them: a line that is neither a field nor a
#: continuation ends the fields.
_FIELD_NAME = re.compile(rb"[\x21-\x39\x3b-\x7e]*:")


def _version_number(version: str) -> Optional[Tuple[int, int]]:
    """``HTTP/major.minor`` as ``(major, minor)``; ``None`` for a version the
    stdlib refuses (RFC 2145: one dot, digits only, at most ten each).

    ``isdecimal`` where the stdlib has ``isdigit``: a digit that ``int``
    cannot read, such as ``"²"``, fails the check instead of raising, and is
    refused either way.
    """
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(part.isdecimal() and len(part) <= 10 for part in parts):
        return None
    return int(parts[0]), int(parts[1])


def _is_positive_finite(value) -> bool:
    """Whether a decoded JSON value is a number in ``(0, inf)``.

    ``json`` accepts ``NaN`` and ``Infinity`` and decodes integers of any
    size, so this checks the value as the float it will be used as.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return 0.0 < float(value) < math.inf
    except OverflowError:  # an integer beyond the float range
        return False


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


class ServeApp:
    """The serving application: registry + metrics + per-model schedulers.

    Everything runs in one process, on the engines the registry compiled
    before serving: every registered model stays loaded.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` to resolve model names against.
    metrics:
        Optional shared :class:`MetricsRegistry` (created when omitted).
    max_batch_size:
        Micro-batch cap applied to every model's scheduler.
    tenant_quotas:
        Optional :class:`~repro.serve.tenancy.TenantQuotas`, the one
        admission limit: it gates every predict, single rows and client
        batches alike, on its tenant (model name).  An empty token bucket
        answers 429 ``tenant_rate_limited``, a full concurrency quota 429
        ``tenant_quota_exceeded``, both with a ``Retry-After`` hint.  A
        model's scheduler runs one batch at a time, so every queued request
        also holds its lease and the concurrency quota bounds the queue.
    default_deadline_ms:
        Deadline applied to requests that do not send ``deadline_ms``
        themselves; ``None`` means no implicit deadline.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`, handed on to every
        model's scheduler.  Each sampled ``/v1/predict`` request becomes one
        trace: a ``request`` root span with ``validate`` / ``respond``
        children here, stitched to the scheduler's ``queue_wait`` /
        ``batch_execute`` spans, which the caller leading each batch records.
        Without one, nothing is traced.

    Every predict that passes validation has its outcome recorded once, in
    :meth:`_predict`, by the model's
    :meth:`~repro.serve.metrics.ModelMetrics.record_outcome`.  SLOs are
    evaluated outside the server: burn-rate alerting is Prometheus rules
    over the counters and latency buckets ``GET /metrics`` exports
    (``docs/observability.md``).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        metrics: Optional[MetricsRegistry] = None,
        max_batch_size: int = 64,
        tenant_quotas: Optional[TenantQuotas] = None,
        default_deadline_ms: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.max_batch_size = max_batch_size
        self.tenant_quotas = tenant_quotas
        self.default_deadline_ms = default_deadline_ms
        self._schedulers: Dict[str, BatchScheduler] = {}
        self._lock = threading.Lock()
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
        with self._lock:
            schedulers = dict(self._schedulers)
        if schedulers:
            snapshot["schedulers"] = {
                name: {"queue_depth": scheduler.queue_depth}
                for name, scheduler in schedulers.items()
            }
        if self.tenant_quotas is not None:
            snapshot["tenancy"] = self.tenant_quotas.snapshot()
        return snapshot

    def predict(self, payload: dict) -> dict:
        """Handle one ``POST /v1/predict`` payload.

        Sampled requests become one trace: this opens the ``request`` root
        span (the sampling decision for the whole tree) and every stage
        below — in this thread, or in that of the caller leading its
        micro-batch — stitches under it.  Exceptions mark the root span
        with an ``error`` attribute on the way out.
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
        if not isinstance(name, str):
            raise RequestError(400, "'model' must be a string")
        if name not in registry:
            raise RequestError(404, f"unknown model {name!r}")
        top_k = payload.get("top_k", 1)
        if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
            raise RequestError(400, "'top_k' must be a positive integer")
        try:
            features = np.asarray(payload["features"], dtype=np.float64)
        except KeyError:
            raise RequestError(400, "the 'features' field is required")
        except (TypeError, ValueError, OverflowError):
            # Covers non-numeric entries, ragged rows (NumPy refuses the
            # inhomogeneous nesting) and integers beyond the float range — a
            # clean 400, never a stack trace.
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
            if not _is_positive_finite(deadline_ms):
                raise RequestError(
                    400, "'deadline_ms' must be a positive finite number"
                )
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
        # Anything but a RequestError or an answer escapes to the handler,
        # which answers it 500.
        status = 500
        try:
            # Tenant admission sheds *before* the request can touch the
            # scheduler capacity the other tenants share.
            lease = contextlib.nullcontext()
            if self.tenant_quotas is not None:
                try:
                    lease = self.tenant_quotas.admit(name)
                except TenantAdmissionError as error:
                    raise RequestError(
                        429,
                        str(error),
                        code=error.code,
                        retry_after=retry_after_header(error.retry_after),
                    )
            with lease:
                response = self._execute(
                    name, top_k, features, deadline, model_metrics, started, root
                )
            status = 200
            return response
        except RequestError as error:
            status = error.status
            # Stamp the tenant / trace onto the error so the access log can
            # carry them even though the response body never sees the model.
            error.tenant = name
            if sampled:
                error.trace_id = root.trace_id
            raise
        finally:
            model_metrics.record_outcome(
                status,
                time.perf_counter() - started,
                trace_id=root.trace_id if sampled else None,
            )

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
        try:
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError("deadline expired before execution")
            if features.ndim == 1:
                # Another caller's thread may run this row's batch, so the
                # root context is handed over explicitly.
                labels, scores = self.scheduler_for(name).top_k(
                    features, k=top_k, trace=root.context, deadline=deadline
                )
                labels, scores = labels[None, :], scores[None, :]
            else:
                labels, scores = self.engine_for(name).top_k(features, k=top_k)
                model_metrics.record_samples(features.shape[0])
            if deadline is not None and time.monotonic() >= deadline:
                # The answer exists but arrived late — a deadline is a
                # promise, so the caller gets 504, not stale work.
                raise DeadlineExceededError("request completed after its deadline")
        except DeadlineExceededError as error:
            raise RequestError(504, str(error), code="deadline_exceeded")
        except ValueError as error:
            raise RequestError(400, str(error))
        return self._respond(name, labels, scores, top_k, started, root)

    def _respond(
        self,
        name: str,
        labels: np.ndarray,
        scores: np.ndarray,
        top_k: int,
        started: float,
        root,
    ) -> dict:
        """Build the response under a ``respond`` span; sampled requests get
        their ``trace_id`` echoed so clients can find their trace."""
        with self.tracer.start_span("respond") if root.sampled else NULL_SPAN:
            response = self._build_response(name, labels, scores, top_k, started)
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
    ) -> dict:
        response = {
            "model": name,
            "labels": [int(row[0]) for row in labels],
            "latency_ms": (time.perf_counter() - started) * 1e3,
        }
        if top_k > 1:
            response["top_k_labels"] = labels.astype(int).tolist()
            response["top_k_scores"] = scores.astype(float).tolist()
        else:
            response["scores"] = [float(row[0]) for row in scores]
        return response

    # ------------------------------------------------------------- schedulers
    def scheduler_for(self, name: str) -> BatchScheduler:
        """The (lazily created) micro-batch scheduler for model *name*, on
        the engine :meth:`engine_for` gives when it is built."""
        with self._lock:
            scheduler = self._schedulers.get(name)
            if scheduler is None:
                scheduler = BatchScheduler(
                    self.engine_for(name),
                    max_batch_size=self.max_batch_size,
                    metrics=self.metrics.for_model(name),
                    tracer=self.tracer,
                )
                self._schedulers[name] = scheduler
            return scheduler

    def engine_for(self, name: str):
        """The engine that scores *name*'s rows: the registry's."""
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
    """Routes HTTP requests to the :class:`ServeApp` on ``self.server.app``.

    ``headers`` holds the fields in :data:`_KEPT_FIELDS` only, by lower-case
    name (the first of each wins, as ``email.message.Message.get`` has it).
    """

    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a routed answer is one write, but ``send_error`` (the
    #: stdlib's answers to malformed requests) still writes the header and
    #: the body apart, and an ``Expect: 100-continue`` request gets its
    #: ``100`` and its answer apart; with Nagle on, the second small segment
    #: waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True
    #: Maximum accepted request body (guards against unbounded reads).
    max_body_bytes = 64 * 1024 * 1024
    #: ``(second, Date field)`` of the connection's last answer: the field
    #: is formatted at most once a second.
    _date = (0, "")

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    # ------------------------------------------------------------ request loop
    def handle_one_request(self) -> None:
        """Read one request and answer it through its ``do_<METHOD>``.

        Replaces the stdlib's loop, whose ``parse_request`` reads the header
        fields with the email parser; :meth:`_read_request` reads only what
        the routes use.  GET and POST share this one loop.
        """
        try:
            if not self._read_request():
                return
            method = getattr(self, "do_" + self.command, None)
            if method is None:
                self.send_error(
                    HTTPStatus.NOT_IMPLEMENTED,
                    f"Unsupported method ({self.command!r})",
                )
                return
            method()
        except TimeoutError as error:
            # A read or a write timed out (TCP gave up on the peer): drop the
            # connection, as the stdlib loop does.
            self.log_error("Request timed out: %r", error)
            self.close_connection = True

    def _read_request(self) -> bool:
        """Read the request line and header fields; whether to dispatch.

        Sets what ``send_error`` and the log read (``raw_requestline``,
        ``requestline``, ``request_version``, ``command``, ``path`` and
        ``headers``) and ``close_connection``, and answers malformed requests
        as the stdlib's ``parse_request`` does, within its limits: 414 for a
        request line over 64 KiB; 400 for a line it cannot read, a bad
        version, or a version-less (HTTP/0.9) request other than GET; 505
        from HTTP/2.0 on; 431 for a header line over 64 KiB, or for more
        than 100 lines counting the blank one.  An answer sent before the
        version is read is the body alone, as an HTTP/0.9 answer is.
        HTTP/1.1 keeps the connection open; HTTP/1.0 closes it unless it
        sends ``Connection: keep-alive``; ``Connection: close`` closes either.
        An HTTP/0.9 request, named or version-less, always closes: its
        answer has no status line or length, so the close is where it ends
        (the stdlib keeps it open on ``Connection: keep-alive``).
        """
        self.command = None
        self.path = ""
        self.headers = {}
        self.request_version = self.default_request_version
        self.close_connection = True
        self.raw_requestline = self.rfile.readline(_MAXLINE + 1)
        if len(self.raw_requestline) > _MAXLINE:
            self.requestline = self.request_version = self.command = ""
            self.send_error(HTTPStatus.REQUEST_URI_TOO_LONG)
            return False
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})"
                )
                return False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})"
                )
                return False
        self.command = command
        # As the stdlib: '//' would read as a scheme-relative URL.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        if not self._read_fields():
            return False
        connection = self.headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive" and self.request_version != "HTTP/0.9":
            self.close_connection = False
        if (
            self.headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_fields(self) -> bool:
        """Read the header fields up to the blank line into ``headers``.

        Keeps the first value of each field in :data:`_KEPT_FIELDS`, read as
        the email parser reads it: leading blanks stripped, continuation
        lines appended, line ends stripped.  As there, a line that is not a
        field ends the fields (the lines after it are still read).
        """
        kept: Dict[bytes, bytes] = {}
        extending = None  # the kept field a continuation line extends
        ended = False
        lines = 0
        while True:
            line = self.rfile.readline(_MAXLINE + 1)
            if len(line) > _MAXLINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                    f"got more than {_MAXLINE} bytes when reading header line",
                )
                return False
            lines += 1
            if lines > _MAXHEADERS:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Too many headers",
                    f"got more than {_MAXHEADERS} headers",
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            if line[0] in b" \t":
                if extending is not None:
                    kept[extending] += line
                continue
            extending = None
            if ended or line.startswith(b"From "):  # an mbox envelope line
                continue
            match = _FIELD_NAME.match(line)
            if match is None:
                ended = True
                continue
            name = line[: match.end() - 1].lower()
            if name in _KEPT_FIELDS and name not in kept:
                kept[name] = line[match.end() :].lstrip(b" \t")
                extending = name
        self.headers = {
            name.decode("ascii"): value.decode("iso-8859-1").rstrip("\r\n")
            for name, value in kept.items()
        }
        return True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # Stdlib diagnostics (malformed request lines, broken pipes) used to
        # be silently discarded here; route them through the access logger
        # instead so ``--log-level`` surfaces them.
        logger = getattr(self.server, "access_logger", None)
        if logger is not None:
            logger.warning(format % args)

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
        (429/tenant_*) and timed-out (504/deadline_exceeded) requests are
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
        except ConnectionError:
            raise  # the client hung up: _Server.handle_error logs it
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
        except ConnectionError:
            raise  # the client hung up: _Server.handle_error logs it
        except Exception:
            # Unexpected failures answer with a fixed JSON body: no stack
            # trace, no exception internals — those go to the access log
            # (with a log level set), never over the wire.
            code = "internal"
            status = self._send_internal_error()
        self._log_access(
            "POST", status, started, code=code, tenant=tenant, trace_id=trace_id
        )

    def _send_internal_error(self) -> int:
        logger = getattr(self.server, "access_logger", None)
        if logger is not None:  # pragma: no cover - unexpected-failure path
            logger.exception("unhandled error serving %s", self.path)
        return self._send_json(
            500, {"error": "internal server error", "code": "internal"}
        )

    # ---------------------------------------------------------------- helpers
    def _read_json(self) -> dict:
        try:
            length = int(self.headers.get("content-length", 0))
        except ValueError:
            raise RequestError(400, "Content-Length must be an integer")
        if length <= 0:
            raise RequestError(400, "a JSON request body is required")
        if length > self.max_body_bytes:
            raise RequestError(413, "request body too large")
        body = self.rfile.read(length)
        if len(body) < length:
            # The stream ended (a half-close) before the whole body arrived.
            raise RequestError(
                400, f"request body ended after {len(body)} of {length} bytes"
            )
        try:
            return json.loads(body)
        except ValueError as error:
            # JSONDecodeError, or UnicodeDecodeError for bytes that are not
            # UTF-8 (both are ValueErrors).
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
        """Answer with *body* in one write (one ``sendall``): the status
        line and header fields the stdlib's ``send_response`` would send,
        then the body.  An HTTP/0.9 request gets the body alone."""
        if status >= 400:
            # The request body may not have been (fully) read on error paths;
            # on a keep-alive connection the leftover bytes would be parsed as
            # the next request line, so drop the connection instead.
            self.close_connection = True
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return status
        now = int(time.time())
        if self._date[0] != now:
            self._date = (now, self.date_time_string(now))
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self._date[1]}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {int(retry_after)}\r\n"
        if status >= 400:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)
        return status


class _Server(ThreadingHTTPServer):
    #: Listen backlog.  The stdlib default of 5 overflows under a burst of
    #: connects, and each dropped SYN costs the client a ~1 s retransmit.
    request_queue_size = 128

    def handle_error(self, request, client_address) -> None:
        """A client that hangs up is one access-log line, not a traceback.

        The stdlib prints a traceback to stderr for any exception raised
        while serving a connection; a ``ConnectionError`` (broken pipe,
        reset) is the client leaving, so it is logged like a request.  Any
        other exception keeps the stdlib report.
        """
        error = sys.exc_info()[1]
        if not isinstance(error, ConnectionError):
            super().handle_error(request, client_address)
            return
        logger = getattr(self, "access_logger", None)
        if logger is not None:
            logger.info(
                "client=%s disconnected error=%s",
                client_address[0],
                type(error).__name__,
            )


def create_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
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
    log_level: Optional[str] = None,
) -> None:  # pragma: no cover - blocking loop, exercised manually / by CLI
    """Run the server until interrupted, then drain and flush schedulers.

    ``SIGTERM`` triggers a graceful drain: ``/v1/readyz`` flips to 503 so a
    load balancer stops routing here, new ``/v1/predict`` calls answer 503
    ``draining``, in-flight requests finish, and only then do the
    schedulers stop.
    """
    server = create_server(app, host=host, port=port, log_level=log_level)

    def _handle_sigterm(signum, frame):  # noqa: ARG001 - signal signature
        app.begin_drain()
        # shutdown() blocks until serve_forever returns, so it must run off
        # the signal-handler (main) thread to avoid deadlocking the loop.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_handler = signal.signal(signal.SIGTERM, _handle_sigterm)
    bound_host, bound_port = server.server_address[:2]
    print(f"repro.serve listening on http://{bound_host}:{bound_port}")
    for row in app.registry.list_models():
        print(f"  {row['name']} ({row['strategy']})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
        app.drain()


__all__ = ["ServeApp", "RequestError", "create_server", "run_server"]
