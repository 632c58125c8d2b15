"""Stdlib-only JSON-over-HTTP serving front-end.

No web framework and no thread per connection: one :mod:`selectors` loop
serves every connection on the thread that calls ``serve_forever``.  It
accepts without blocking, reads each ready connection into that
connection's own buffer, answers every complete request there, in order,
and sends the answers without blocking.  Python runs one handler at a time
anyway (the GIL), so threads would buy no parallelism, only hand-offs.
Every predict, one row or a client batch, is one engine call on the thread
that handles it.  A connection that receives no byte, and drains none of
its answer, for :data:`_IDLE_TIMEOUT_S` is closed without an answer.

:class:`_Handler` parses and answers one request at a time, reading from
and writing to its connection's buffers: :meth:`_Handler.handle_one_request`
reads the request line and header fields itself and keeps only what the
routes read (method, path, version, ``Content-Length``, ``Connection`` and
``Expect``), with the stdlib's limits, keep-alive rules and error answers;
the stdlib's email-based header parser never runs.  A request whose bytes
have not all arrived is parsed again from its start once the bytes it
stopped at are in (the end of a line, a line at its limit, the whole
body), so its limits (414, 431, 413) and its ``100 Continue`` apply as soon
as the bytes that decide them arrive, and a head is parsed at most once a
line however it is split.  Every routed answer is one write: status
line, header fields and body in one ``send``.

Routes
------
``GET  /v1/healthz``  liveness + model count;
``GET  /v1/readyz``   readiness — 200 while accepting work, 503 once
                      ``ServeApp.begin_drain`` has been called (in process:
                      over HTTP a drain refuses the probe's connection);
``GET  /v1/models``   one row per model: name, path, strategy, dimension,
                      class count and ensemble size;
``GET  /metrics``     per-model counters, latency histograms and tenant
                      admission counters in Prometheus text exposition;
``POST /v1/predict``  body ``{"model": name?, "features": [...], "top_k": k?,
                      "deadline_ms": ms?}`` — a 1-D ``features`` list is one
                      sample, a 2-D list a client-side batch; either is
                      scored in one engine call.  ``deadline_ms`` bounds the
                      whole request: past it the server answers 504 instead
                      of returning stale work.

Every error response is machine-readable: ``{"error": message, "code":
slug}`` with ``Retry-After`` on 429/503.  The one admission limit is
:class:`~repro.serve.tenancy.TenantQuotas`, a token bucket per model name;
its 429 code is ``tenant_rate_limited``.  The full retry taxonomy (which
codes mean *back off*, *retry*, or *give up*) is documented in
``docs/robustness.md``.

Example::

    curl -s localhost:8080/v1/predict \\
      -d '{"features": [0.1, 0.2, 0.3, 0.4]}'
"""

from __future__ import annotations

import collections
import contextlib
import errno
import json
import logging
import math
import re
import selectors
import signal
import socket
import sys
import threading
import time
import traceback
from http import HTTPStatus
from http.client import _MAXHEADERS, _MAXLINE
from http.server import BaseHTTPRequestHandler
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from repro.obs.prometheus import render_prometheus
from repro.obs.trace import NULL_SPAN, Tracer
from repro.serve.metrics import MetricsRegistry
from repro.serve.registry import ModelRegistry
from repro.serve.tenancy import TenantQuotas, TenantRateLimitedError, retry_after_header
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


#: Listen backlog.  The stdlib default of 5 overflows under a burst of
#: connects, and each dropped SYN costs the client a ~1 s retransmit.
_BACKLOG = 128
#: The most bytes one ``recv`` takes from a connection.
_RECV_BYTES = 64 * 1024
#: Unsent answer bytes past which the loop reads and answers no more of a
#: connection's requests until the client reads: a client that pipelines
#: and never reads cannot grow the server's memory without bound.
_MAX_UNSENT = 1024 * 1024
#: Seconds a connection may go without receiving a byte or draining a byte
#: of its answer, idle or in the middle of a request, before the loop closes
#: it without an answer.
_IDLE_TIMEOUT_S = 60.0
#: Seconds a drain serves the connections that hold a partial request or
#: unsent answers before it gives up on them.
_DRAIN_GRACE_S = 10.0


def _content_length(value: str) -> int:
    """A ``Content-Length`` field's value as a byte count.

    RFC 9110 §8.6 allows ASCII digits only, so a sign, an underscore or any
    other digit ``int`` would read is refused (a proxy that frames the
    request differently is how request smuggling starts).  Blanks around
    the value, including a folded line's, are allowed.
    """
    digits = value.strip(" \t\r\n")
    try:
        if digits.isascii() and digits.isdigit():
            return int(digits)
    except ValueError:  # more digits than ``int`` reads from a string
        pass
    raise RequestError(400, "Content-Length must be an integer")


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
    """The serving application: registry + metrics + tenant quotas.

    Everything runs in one process, on the engines the registry compiled
    before serving: every registered model stays loaded.  Every predict is
    one engine call on its caller's thread; the engine is safe to share
    across threads, so in-process callers need no lock of their own.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` to resolve model names against.
    metrics:
        Optional shared :class:`MetricsRegistry` (created when omitted).
    tenant_quotas:
        Optional :class:`~repro.serve.tenancy.TenantQuotas`, the one
        admission limit: it gates every predict, single rows and client
        batches alike, on its tenant (model name).  An empty token bucket
        answers 429 ``tenant_rate_limited`` with a ``Retry-After`` hint.
    default_deadline_ms:
        Deadline applied to requests that do not send ``deadline_ms``
        themselves; ``None`` means no implicit deadline.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`.  Each sampled
        ``/v1/predict`` request becomes one trace: a ``request`` root span
        with ``validate``, ``batch_execute`` (the engine call) and
        ``respond`` children.  Without one, nothing is traced.

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
        tenant_quotas: Optional[TenantQuotas] = None,
        default_deadline_ms: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.registry = registry
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.tenant_quotas = tenant_quotas
        self.default_deadline_ms = default_deadline_ms
        self._draining = False

    # ----------------------------------------------------------------- routes
    def healthz(self) -> dict:
        return {"status": "ok", "models": len(self.registry.names())}

    def readyz(self) -> Tuple[int, dict]:
        """Readiness: ``(200, ...)`` while accepting work, ``(503, ...)``
        once :meth:`begin_drain` has been called."""
        if self._draining:
            return 503, {"status": "draining"}
        return 200, {"status": "ready", "models": len(self.registry.names())}

    def models(self) -> dict:
        return {"models": self.registry.list_models()}

    def metrics_snapshot(self) -> dict:
        snapshot = self.metrics.snapshot()
        if self.tenant_quotas is not None:
            snapshot["tenancy"] = self.tenant_quotas.snapshot()
        return snapshot

    def predict(self, payload: dict) -> dict:
        """Handle one ``POST /v1/predict`` payload.

        Sampled requests become one trace: this opens the ``request`` root
        span (the sampling decision for the whole tree) and every stage
        below, all on this thread, nests under it.  Exceptions mark the
        root span with an ``error`` attribute on the way out.
        """
        if self._draining:
            raise RequestError(
                503, "server is draining; retry another replica", code="draining"
            )
        with self.tracer.start_span("request", attrs={"route": "/v1/predict"}) as root:
            return self._predict(payload, root)

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
            # Tenant admission sheds *before* the request reaches the engine
            # the other callers share.
            if self.tenant_quotas is not None:
                try:
                    self.tenant_quotas.admit(name)
                except TenantRateLimitedError as error:
                    raise RequestError(
                        429,
                        str(error),
                        code=error.code,
                        retry_after=retry_after_header(error.retry_after),
                    )
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
        """Score *features* (one row or a client batch) in one engine call.

        A row whose width is not the model's is the engine's ``ValueError``,
        answered 400.  An answer that arrives after *deadline* is a 504: a
        deadline is a promise, so the caller never gets stale work.
        """
        if deadline is not None and time.monotonic() >= deadline:
            raise RequestError(504, "deadline expired before execution")
        rows = np.atleast_2d(features)
        scoring = time.perf_counter()
        try:
            with self.tracer.start_span("batch_execute") if root.sampled else NULL_SPAN:
                labels, scores = self.engine_for(name).top_k(rows, k=top_k)
        except ValueError as error:
            raise RequestError(400, str(error))
        model_metrics.record_stage("batch_execute", time.perf_counter() - scoring)
        model_metrics.record_samples(len(rows))
        if deadline is not None and time.monotonic() >= deadline:
            raise RequestError(504, "request completed after its deadline")
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

    def engine_for(self, name: str):
        """The engine that scores *name*'s rows: the registry's.  Resolved
        once per predict, so a test may swap it between predicts."""
        return self.registry.get(name)

    def begin_drain(self) -> None:
        """Flip readiness off and answer every predict from now on 503
        ``draining``.  Idempotent and instant; the server calls it when
        its drain begins (:meth:`_SelectorServer.serve_forever`)."""
        self._draining = True


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the :class:`ServeApp` on ``self.server.app``.

    One per connection, made by the loop, which owns the socket: ``rfile``
    and ``wfile`` are the connection's buffers (:class:`_Connection`), and
    the stdlib's ``setup``, ``handle`` and ``finish`` never run.

    ``headers`` holds the fields in :data:`_KEPT_FIELDS` only, by lower-case
    name (the first of each wins, as ``email.message.Message.get`` has it).
    """

    protocol_version = "HTTP/1.1"
    #: Maximum accepted request body (guards against unbounded reads).
    max_body_bytes = 64 * 1024 * 1024
    #: ``(second, Date field)`` of the connection's last answer: the field
    #: is formatted at most once a second.
    _date = (0, "")
    #: Whether this request's ``100 Continue`` has been written.
    _continued = False

    def __init__(self, connection: "_Connection", client_address, server):
        self.rfile = self.wfile = connection
        self.client_address = client_address
        self.server = server

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

    def handle_expect_100(self) -> bool:
        """Write ``100 Continue`` once per request: the loop parses a request
        again from its start when its body arrives after its head."""
        if not self._continued:
            self._continued = True
            super().handle_expect_100()
        return True

    def _read_fields(self) -> bool:
        """Read the header fields up to the blank line into ``headers``.

        Keeps the first value of each field in :data:`_KEPT_FIELDS`, read as
        the email parser reads it: leading blanks stripped, continuation
        lines appended, line ends stripped.  As there, a line that is not a
        field ends the fields (the lines after it are still read).
        """
        kept: Dict[bytes, list] = {}  # each field's value, in parts
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
                    kept[extending].append(line)
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
                kept[name] = [line[match.end() :].lstrip(b" \t")]
                extending = name
        self.headers = {
            name.decode("ascii"): b"".join(parts).decode("iso-8859-1").rstrip("\r\n")
            for name, parts in kept.items()
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
            raise  # the client hung up: the loop logs it
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
            raise  # the client hung up: the loop logs it
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
        length = _content_length(self.headers.get("content-length", "0"))
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
        """Answer with *body* in one write (one ``send``): the status
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


class _NeedMore(BaseException):
    """The bytes a connection has received end inside a request.

    Raised by :class:`_Connection`'s reads; the loop parses the request
    again from its start once the bytes the read waits for arrive.  A
    ``BaseException``, so that ``do_POST``'s catch-all 500 lets it through.
    """


class _Connection:
    """One accepted socket: its handler's ``rfile`` and ``wfile``.

    ``received`` holds the bytes from the start of the request being parsed,
    and the parse reads them from ``pos`` on.  A read that runs past them
    raises :class:`_NeedMore`, unless the peer has closed (``eof``): then it
    returns what there is, as a socket file's read does.  Before it raises,
    it notes what would let it finish: ``need`` bytes in all, or for a line,
    a newline at ``scan`` or after (``scan`` is -1 for a body).  The loop
    parses the request again only once :meth:`ready`, so a head that trickles
    in is parsed at most once per line, not once per segment, and a body
    once it is whole.

    A write joins ``unsent``, and goes out at once when it answers the last
    request received.  So the answers to pipelined requests leave in one
    ``send``, and a client that has gone raises its ``ConnectionError`` in
    the handler, before the request's access-log line is written, as a
    socket file's write would.
    """

    __slots__ = (
        "sock", "address", "handler", "received", "pos", "need", "scan", "eof",
        "unsent", "closing", "events", "active",
    )

    def __init__(self, sock: socket.socket, address, server: "_SelectorServer"):
        self.sock = sock
        self.address = address
        self.handler = _Handler(self, address, server)
        self.received = bytearray()
        self.pos = 0
        self.need = 1
        self.scan = -1
        self.eof = False
        self.unsent = bytearray()
        self.closing = False
        self.events = selectors.EVENT_READ
        self.active = time.monotonic()

    def readline(self, limit: int) -> bytes:
        received, pos = self.received, self.pos
        end = received.find(b"\n", pos, pos + limit) + 1
        if not end:
            if len(received) - pos < limit and not self.eof:
                # The line ends at its newline or at *limit* bytes.
                self.need = pos + limit
                self.scan = len(received)
                raise _NeedMore
            end = min(pos + limit, len(received))
        self.pos = end
        return bytes(received[pos:end])

    def read(self, size: int) -> bytes:
        pos = self.pos
        end = pos + size
        if end > len(self.received):
            if not self.eof:
                self.need = end
                self.scan = -1
                raise _NeedMore
            end = len(self.received)
        self.pos = end
        return bytes(self.received[pos:end])

    def ready(self) -> bool:
        """Whether the bytes received let the parse get past the read that
        stopped it; each byte is searched for a newline once."""
        received = self.received
        if self.eof or len(received) >= self.need:
            return True
        if self.scan < 0:
            return False
        if received.find(b"\n", self.scan) >= 0:
            return True
        self.scan = len(received)
        return False

    def write(self, data: bytes) -> int:
        self.unsent += data
        if self.pos == len(self.received):
            self.send()
        return len(data)

    def send(self) -> None:
        """Send what is unsent with one ``send``, as far as the socket takes it."""
        if self.unsent:
            with contextlib.suppress(BlockingIOError):
                del self.unsent[: self.sock.send(self.unsent)]


class _SelectorServer:
    """The HTTP server: one :mod:`selectors` loop serves every connection.

    :meth:`serve_forever` runs on the thread that calls it, and its
    connections with it: each wake-up accepts every pending connection,
    reads each ready one, answers the requests it has received through its
    :class:`_Handler`, and sends what the socket takes.  A connection that
    raises a ``ConnectionError`` is one access-log line; any other exception
    raised while serving one is reported as ``socketserver`` reports it.
    Either way only that connection closes.
    """

    def __init__(self, address: Tuple[str, int], app: ServeApp):
        self.app = app
        self.access_logger: Optional[logging.Logger] = None
        self.socket = socket.create_server(address, backlog=_BACKLOG)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        # shutdown() writes a byte to wake the loop from its select.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._selector.register(self._wake_reader, selectors.EVENT_READ)
        #: Open connections, least recently active first.
        self._connections: "collections.OrderedDict[socket.socket, _Connection]" = (
            collections.OrderedDict()
        )
        self._stop = False
        self._stopped = threading.Event()
        #: Whether ``accept`` ran out of descriptors: the listener is not
        #: selected until a connection closes (the next one waits in the backlog).
        self._paused = False

    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or SIGTERM under :func:`run_server`),
        then drain and return.

        The drain calls ``app.begin_drain()``, accepts the connections
        already in the backlog and closes the listener, so a new connection
        is refused.  It closes each connection that holds no
        partial request and no unsent answer, and serves the rest: a predict
        that completes is answered 503 ``draining`` and its connection
        closed, and any other connection is closed once it is idle.  It
        returns when no connection is left, or after :data:`_DRAIN_GRACE_S`.
        """
        self._stopped.clear()
        try:
            while not self._stop:
                self._poll(self._close_idle())
            self._drain()
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Make :meth:`serve_forever` drain and return, from another thread;
        return once it has returned."""
        self._request_stop()
        self._stopped.wait()

    def server_close(self) -> None:
        """Close the listening socket and every open connection."""
        self._paused = False  # a connection closed below must not select the listener
        for connection in list(self._connections.values()):
            self._close(connection)
        self._selector.close()
        for sock in (self.socket, self._wake_reader, self._wake_writer):
            sock.close()

    def _request_stop(self) -> None:
        """Set the stop flag and wake the loop; safe in a signal handler."""
        self._stop = True
        with contextlib.suppress(OSError):
            self._wake_writer.send(b"\0")

    def _poll(self, timeout: float) -> None:
        """Wait up to *timeout* seconds, then serve what is ready."""
        ready = self._selector.select(timeout)
        now = time.monotonic()
        for key, events in ready:
            if key.data is not None:
                self._serve(key.data, events, now)
            elif key.fileobj is self.socket:
                self._accept()
            else:
                with contextlib.suppress(BlockingIOError):
                    self._wake_reader.recv(64)

    def _drain(self) -> None:
        self.app.begin_drain()
        # A connection in the accept backlog was made before the drain:
        # serve it like any other instead of resetting it with the listener.
        if not self._paused:
            self._accept()
        if not self._paused:  # _accept pauses the listener when out of descriptors
            self._selector.unregister(self.socket)
        self._paused = False
        self.socket.close()
        deadline = time.monotonic() + _DRAIN_GRACE_S
        timeout = 0.0  # first read what has arrived, then close the idle
        while True:
            self._poll(timeout)
            for connection in list(self._connections.values()):
                if not (connection.received or connection.unsent):
                    self._close(connection)
            remaining = deadline - time.monotonic()
            if not self._connections or remaining <= 0:
                return
            timeout = min(remaining, self._close_idle())

    def _accept(self) -> None:
        while True:
            try:
                sock, address = self.socket.accept()
            except OSError as error:
                # None pending, or this one failed (ECONNABORTED, EPROTO): the
                # next select finds the rest.  Out of descriptors, the listener
                # would stay readable and wake the loop again and again.
                if error.errno in (errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM):
                    self._selector.unregister(self.socket)
                    self._paused = True
                return
            try:
                sock.setblocking(False)
                # ``send_error`` writes the header and the body apart, and
                # a ``100 Continue`` goes out before its answer; with Nagle
                # on, the second small segment waits for the client's
                # delayed ACK (~40 ms).
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # the client has already gone
                sock.close()
                continue
            connection = _Connection(sock, address, self)
            self._connections[sock] = connection
            self._selector.register(sock, selectors.EVENT_READ, connection)

    def _serve(self, connection: _Connection, events: int, now: float) -> None:
        connection.active = now
        self._connections.move_to_end(connection.sock)
        try:
            if events & selectors.EVENT_WRITE:
                connection.send()
            if events & selectors.EVENT_READ:
                with contextlib.suppress(BlockingIOError):
                    data = connection.sock.recv(_RECV_BYTES)
                    connection.received += data
                    connection.eof = not data
            self._answer(connection)
        except ConnectionError as error:
            if self.access_logger is not None:
                self.access_logger.info(
                    "client=%s disconnected error=%s",
                    connection.address[0],
                    type(error).__name__,
                )
            self._close(connection)
        except Exception:
            print("-" * 40, file=sys.stderr)
            print(
                "Exception occurred during processing of request from",
                connection.address,
                file=sys.stderr,
            )
            traceback.print_exc()
            print("-" * 40, file=sys.stderr)
            self._close(connection)

    def _answer(self, connection: _Connection) -> None:
        """Answer every complete request *connection* has received, in
        order, while its unsent answers stay under :data:`_MAX_UNSENT`;
        send them, then wait for what the connection needs next."""
        handler = connection.handler
        while not connection.closing and connection.ready():
            if len(connection.unsent) > _MAX_UNSENT:
                connection.send()
                if len(connection.unsent) > _MAX_UNSENT:
                    break
            connection.pos = 0
            try:
                handler.handle_one_request()
            except _NeedMore:
                break
            del connection.received[: connection.pos]
            connection.need, connection.scan = 1, -1
            connection.closing = handler.close_connection
            handler._continued = False
        connection.send()
        if connection.closing and not connection.unsent:
            self._close(connection)
            return
        events = selectors.EVENT_WRITE if connection.unsent else 0
        if not (connection.closing or connection.eof) and len(connection.unsent) <= _MAX_UNSENT:
            events |= selectors.EVENT_READ
        if events != connection.events:
            self._selector.modify(connection.sock, events, connection)
            connection.events = events

    def _close_idle(self) -> float:
        """Close every connection idle for :data:`_IDLE_TIMEOUT_S`; the
        seconds until the next one can be."""
        now = time.monotonic()
        while self._connections:
            connection = next(iter(self._connections.values()))
            idle = now - connection.active
            if idle < _IDLE_TIMEOUT_S:
                return _IDLE_TIMEOUT_S - idle
            if self.access_logger is not None:
                self.access_logger.info(
                    "client=%s timed out idle_s=%.1f", connection.address[0], idle
                )
            self._close(connection)
        return _IDLE_TIMEOUT_S

    def _close(self, connection: _Connection) -> None:
        """Close *connection* as ``socketserver`` closes a request:
        ``shutdown(SHUT_WR)``, then ``close``, so the peer reads the last
        answer before the end of the stream."""
        if self._connections.pop(connection.sock, None) is None:
            return
        self._selector.unregister(connection.sock)
        with contextlib.suppress(OSError):
            connection.sock.shutdown(socket.SHUT_WR)
        connection.sock.close()
        if self._paused:  # a descriptor is free: accept what waits
            self._paused = False
            self._selector.register(self.socket, selectors.EVENT_READ)


def create_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    log_level: Optional[str] = None,
) -> _SelectorServer:
    """Build (but do not start) the HTTP server bound to ``host:port``.

    Pass ``port=0`` to bind an ephemeral port (``server.server_address[1]``
    reports the one chosen) — the integration tests rely on this.  The
    server has the stdlib server's ``serve_forever()``, ``shutdown()`` (from
    another thread) and ``server_close()``.

    ``log_level`` (``"debug"`` / ``"info"`` / ``"warning"`` / ...) enables
    the structured access log on the ``repro.serve.access`` logger: one
    ``method= path= status= dur_ms= client=`` line per answered request,
    plus stdlib HTTP diagnostics as warnings.  ``None`` keeps the server
    silent (the default, and what the benchmarks want).
    """
    logger = None
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
    server = _SelectorServer((host, port), app)
    server.access_logger = logger
    return server


def run_server(
    app: ServeApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    log_level: Optional[str] = None,
) -> None:  # pragma: no cover - blocking loop, exercised manually / by CLI
    """Run the server until ``SIGTERM`` or an interrupt.

    ``SIGTERM`` drains, as :meth:`_SelectorServer.serve_forever` says: a new
    connection, a readiness probe's too, is refused, a predict is answered
    503 ``draining``, and the server returns within :data:`_DRAIN_GRACE_S`.
    An interrupt stops it at once.
    """
    server = create_server(app, host=host, port=port, log_level=log_level)
    previous_handler = signal.signal(signal.SIGTERM, lambda *_: server._request_stop())
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


__all__ = ["ServeApp", "RequestError", "create_server", "run_server"]
