"""The load generator: drive a target through warm-up and measure phases.

Targets abstract the wire: :class:`InProcessTarget` calls
``ServeApp.predict`` directly (full serving path — admission,
micro-batcher, engine — minus HTTP framing), :class:`HTTPTarget` POSTs to a
live ``repro serve`` endpoint over keep-alive ``http.client`` connections
(stdlib only).  Both raise
:class:`TargetError` on request failure so the runner can count errors
without aborting the soak.

:func:`run_load_test` is the phase driver: it replays the sampler's
seed-stable stream, discards the warm-up prefix, and measures the rest under
the chosen traffic model.  Latencies are kept exactly (one float per
request) and summarised with ``np.percentile`` — no histogram bucketing —
because a soak run is small enough to afford exactness.

Multi-tenant soaks ride the same machinery: when the sampler carries a
tenant list, each request is sent against its Zipf-assigned model name.  A
:class:`RetryPolicy` makes the client a well-behaved citizen of a shedding
server — typed 429/503 answers are retried after the server's
``Retry-After`` hint (falling back to capped exponential backoff), with
jitter derived deterministically from ``(seed, request index, attempt)`` so
the retry schedule is as reproducible as the traffic itself.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Union

import numpy as np

from repro.loadgen.report import build_report, server_metrics_delta
from repro.loadgen.sampler import RequestSampler
from repro.loadgen.traffic import ClosedLoop, OpenLoop

TrafficModel = Union[OpenLoop, ClosedLoop]


class TargetError(RuntimeError):
    """A request the target refused or failed (counted, not fatal).

    ``status`` carries the HTTP status code when the failure was a typed
    server answer; ``code`` carries the machine-readable error code from the
    response body.  Both stay ``None`` for transport-level failures (socket
    resets, malformed bodies) — the resilience report counts those as
    *untyped* errors.

    ``retry_after`` carries the server's back-off hint in seconds (from the
    ``Retry-After`` header or the in-process error object) when one was
    given — :class:`RetryPolicy` honours it over its own backoff.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        code: Optional[str] = None,
        retry_after: Optional[float] = None,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after


class InProcessTarget:
    """Send requests straight into a :class:`~repro.serve.server.ServeApp`."""

    kind = "in-process"

    def __init__(
        self,
        app,
        model: Optional[str] = None,
        top_k: int = 1,
        deadline_ms: Optional[float] = None,
    ):
        self.app = app
        self.model = model
        self.top_k = int(top_k)
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)

    def send(self, features: np.ndarray, model: Optional[str] = None) -> dict:
        from repro.serve.server import RequestError

        payload = {"features": features.tolist(), "top_k": self.top_k}
        name = model if model is not None else self.model
        if name is not None:
            payload["model"] = name
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        try:
            return self.app.predict(payload)
        except RequestError as error:
            raise TargetError(
                f"{error.status}: {error}",
                status=error.status,
                code=error.code,
                retry_after=error.retry_after,
            )

    def metrics_snapshot(self) -> Optional[dict]:
        """The app's ``/v1/metrics`` snapshot (for before/after deltas)."""
        return self.app.metrics_snapshot()

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.model,
            "top_k": self.top_k,
            "deadline_ms": self.deadline_ms,
        }


class HTTPTarget:
    """POST requests to a live ``repro serve`` HTTP endpoint.

    Requests ride persistent connections, as a keep-alive client's do, so
    socket-level stalls show up in the soak.  Each request takes an idle
    connection from the target's pool (or opens one) and returns it after,
    so a run holds at most one connection per concurrent caller.  A
    connection is dropped after a ``Connection: close`` answer (the server
    sends one with every status >= 400) or a socket error.
    """

    kind = "http"

    def __init__(
        self,
        url: str,
        model: Optional[str] = None,
        top_k: int = 1,
        timeout: float = 30.0,
        deadline_ms: Optional[float] = None,
    ):
        self.base_url = url.rstrip("/")
        self.url = self.base_url + "/v1/predict"
        self.model = model
        self.top_k = int(top_k)
        self.timeout = float(timeout)
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host[:port] URL, got {url!r}")
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._idle: List[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def send(self, features: np.ndarray, model: Optional[str] = None) -> dict:
        payload = {"features": features.tolist(), "top_k": self.top_k}
        name = model if model is not None else self.model
        if name is not None:
            payload["model"] = name
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        try:
            response, body = self._exchange(
                "POST", "/v1/predict", json.dumps(payload).encode("utf-8")
            )
        except (OSError, http.client.HTTPException) as error:
            raise TargetError(str(error) or type(error).__name__)
        if not 200 <= response.status < 300:
            # A typed server answer: pull the machine-readable ``code`` out
            # of the JSON error body (absent on non-JSON bodies) and the
            # ``Retry-After`` back-off hint out of the headers.
            code = None
            try:
                code = json.loads(body).get("code")
            except (ValueError, AttributeError):
                pass
            retry_after = None
            try:
                retry_after = float(response.getheader("Retry-After"))
            except (TypeError, ValueError):
                pass
            raise TargetError(
                f"{response.status}: {response.reason}",
                status=response.status,
                code=code,
                retry_after=retry_after,
            )
        try:
            return json.loads(body)
        except ValueError as error:
            raise TargetError(str(error))

    def metrics_snapshot(self) -> Optional[dict]:
        """Fetch ``GET /v1/metrics``; ``None`` when the endpoint is unreachable
        (a missing snapshot must never fail the soak itself)."""
        try:
            response, body = self._exchange("GET", "/v1/metrics")
            return json.loads(body) if response.status == 200 else None
        except (OSError, http.client.HTTPException, ValueError):
            return None

    def close(self) -> None:
        """Close the pooled connections; call once no request is in flight."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _exchange(self, method: str, route: str, body: Optional[bytes] = None):
        """One request on a pooled connection; returns ``(response, body)``."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            connection = http.client.HTTPConnection(self._netloc, timeout=self.timeout)
        try:
            connection.request(
                method,
                self._prefix + route,
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return response, payload

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "url": self.url,
            "model": self.model,
            "top_k": self.top_k,
            "deadline_ms": self.deadline_ms,
        }


#: Client-side grace added to the deadline before a successful response is
#: counted as a *deadline violation*: the server enforces the deadline up to
#: the moment it starts writing the response, so serialisation + local
#: loopback delivery may land slightly after the instant itself.
DEADLINE_GRACE_SECONDS = 0.1

#: Statuses a retry policy may retry: shed (429) and transient-unavailable
#: (503) answers both say "come back" — 504 means the work is dead, 4xx
#: means the request is wrong, so neither is retried.
RETRYABLE_STATUSES = frozenset({429, 503})


class RetryPolicy:
    """Deterministic client-side retry of typed back-pressure answers.

    Retries 429/503 failures up to ``max_retries`` times, sleeping the
    server's ``Retry-After`` hint when one came back, else
    ``backoff_seconds * 2**attempt``; either is capped at
    ``max_backoff_seconds``.  The sleep is jittered by a factor in
    ``[0.5, 1.0)`` derived from ``sha256(seed, request index, attempt)`` —
    no randomness, so a soak's retry schedule replays exactly from its
    seed, which keeps multi-tenant reports comparable run to run.
    """

    def __init__(
        self,
        max_retries: int = 3,
        backoff_seconds: float = 0.05,
        max_backoff_seconds: float = 2.0,
        seed: int = 0,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_seconds <= 0:
            raise ValueError(f"backoff_seconds must be > 0, got {backoff_seconds}")
        if max_backoff_seconds < backoff_seconds:
            raise ValueError("max_backoff_seconds must be >= backoff_seconds")
        self.max_retries = int(max_retries)
        self.backoff_seconds = float(backoff_seconds)
        self.max_backoff_seconds = float(max_backoff_seconds)
        self.seed = int(seed)

    def should_retry(self, error: TargetError, attempt: int) -> bool:
        return (
            attempt < self.max_retries
            and error.status is not None
            and error.status in RETRYABLE_STATUSES
        )

    def delay(self, error: TargetError, index: int, attempt: int) -> float:
        base = error.retry_after
        if base is None or base <= 0:
            base = self.backoff_seconds * 2**attempt
        base = min(float(base), self.max_backoff_seconds)
        digest = hashlib.sha256(
            f"{self.seed}:{index}:{attempt}".encode()
        ).digest()
        jitter = int.from_bytes(digest[:4], "big") / 2**32
        return base * (0.5 + 0.5 * jitter)

    def describe(self) -> dict:
        return {
            "max_retries": self.max_retries,
            "backoff_seconds": self.backoff_seconds,
            "max_backoff_seconds": self.max_backoff_seconds,
        }


class _Phase:
    """Latency/error accumulator for one phase (thread-safe).

    Besides the raw latencies, the phase buckets every failure by HTTP
    status and by machine-readable error code — that breakdown is the heart
    of the resilience report (every failure should be a *typed*
    429/503/504, never a hang or a stack trace).
    """

    def __init__(self):
        self.latencies: List[float] = []
        self.errors = 0
        self.errors_by_status: dict = {}
        self.errors_by_code: dict = {}
        self.untyped_errors = 0
        self.deadline_violations = 0
        self.retries = 0
        self.retries_by_status: dict = {}
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self.latencies.append(seconds)

    def record_deadline_violation(self) -> None:
        with self._lock:
            self.deadline_violations += 1

    def record_retry(self, status: Optional[int] = None) -> None:
        """Record one retried attempt (the final outcome is counted
        separately by :meth:`record` / :meth:`record_failure`)."""
        with self._lock:
            self.retries += 1
            if status is not None:
                key = str(int(status))
                self.retries_by_status[key] = (
                    self.retries_by_status.get(key, 0) + 1
                )

    def record_failure(
        self, status: Optional[int] = None, code: Optional[str] = None
    ) -> None:
        with self._lock:
            self.errors += 1
            if status is None:
                self.untyped_errors += 1
            else:
                key = str(int(status))
                self.errors_by_status[key] = self.errors_by_status.get(key, 0) + 1
            if code is not None:
                self.errors_by_code[code] = self.errors_by_code.get(code, 0) + 1


def _send_attempts(
    target,
    features: np.ndarray,
    phase: _Phase,
    index: int = 0,
    model: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> Optional[float]:
    """Send one request (with client-side retries); returns the final
    attempt's duration in seconds, or ``None`` when it ultimately failed.

    Only the last attempt's duration feeds the deadline-violation check —
    the server's deadline clock restarts with each retry, so the back-off
    sleeps must not be charged against it.
    """
    attempt = 0
    while True:
        attempt_started = time.perf_counter()
        try:
            if model is None:
                target.send(features)
            else:
                target.send(features, model=model)
        except TargetError as error:
            if retry is not None and retry.should_retry(error, attempt):
                phase.record_retry(error.status)
                time.sleep(retry.delay(error, index, attempt))
                attempt += 1
                continue
            phase.record_failure(status=error.status, code=error.code)
            return None
        return time.perf_counter() - attempt_started


def _send_one(
    target,
    features: np.ndarray,
    phase: _Phase,
    index: int = 0,
    model: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> None:
    deadline_ms = getattr(target, "deadline_ms", None)
    deadline_seconds = None if deadline_ms is None else deadline_ms / 1e3
    started = time.perf_counter()
    last_attempt = _send_attempts(
        target, features, phase, index=index, model=model, retry=retry
    )
    if last_attempt is None:
        return
    # The recorded latency spans every attempt (what the caller felt); the
    # deadline check uses only the winning attempt.
    phase.record(time.perf_counter() - started)
    if (
        deadline_seconds is not None
        and last_attempt > deadline_seconds + DEADLINE_GRACE_SECONDS
    ):
        phase.record_deadline_violation()


def _run_closed(
    target,
    rows,
    concurrency: int,
    phase: _Phase,
    models=None,
    retry: Optional[RetryPolicy] = None,
) -> float:
    """Closed loop: *concurrency* clients drain the request list; returns wall seconds."""
    position = {"next": 0}
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = position["next"]
                if index >= len(rows):
                    return
                position["next"] = index + 1
            _send_one(
                target,
                rows[index],
                phase,
                index=index,
                model=None if models is None else models[index],
                retry=retry,
            )

    started = time.perf_counter()
    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(min(concurrency, max(1, len(rows))))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


def _run_open(
    target,
    rows,
    traffic: OpenLoop,
    phase: _Phase,
    models=None,
    retry: Optional[RetryPolicy] = None,
) -> float:
    """Open loop: fire at the Poisson schedule; returns wall seconds.

    Dispatch threads are bounded by ``traffic.max_outstanding``; if the pool
    is saturated the schedule slips (recorded implicitly as added latency
    from the intended arrival time — the coordinated-omission-safe measure).
    """
    offsets = traffic.arrival_offsets(len(rows))
    base = time.perf_counter()

    deadline_ms = getattr(target, "deadline_ms", None)
    deadline_seconds = None if deadline_ms is None else deadline_ms / 1e3

    def fire(row, intended: float, index: int, model: Optional[str]):
        last_attempt = _send_attempts(
            target, row, phase, index=index, model=model, retry=retry
        )
        if last_attempt is None:
            return
        finished = time.perf_counter()
        # Latency from *intended arrival*, so schedule slip (server backlog)
        # is charged to the server, not silently forgiven.  The deadline
        # check uses the final attempt's send→response time — the server's
        # deadline clock starts when the request reaches it, not at the
        # intended arrival — so neither client-side slip nor retry back-off
        # can fake a violation.
        phase.record(finished - base - intended)
        if (
            deadline_seconds is not None
            and last_attempt > deadline_seconds + DEADLINE_GRACE_SECONDS
        ):
            phase.record_deadline_violation()

    with ThreadPoolExecutor(
        max_workers=traffic.max_outstanding, thread_name_prefix="loadgen"
    ) as pool:
        futures = []
        for index, (row, offset) in enumerate(zip(rows, offsets)):
            delay = base + offset - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            model = None if models is None else models[index]
            futures.append(pool.submit(fire, row, offset, index, model))
        for future in futures:
            future.result()
    return time.perf_counter() - base


def run_load_test(
    target,
    sampler: RequestSampler,
    traffic: TrafficModel,
    num_requests: int = 200,
    warmup_requests: int = 20,
    max_retries: int = 0,
    retry_backoff_seconds: float = 0.05,
) -> dict:
    """Run warm-up then measure phases; return a JSON-ready report.

    The sampler stream covers ``warmup_requests + num_requests`` rows; the
    warm-up prefix exercises the target (first-call costs) but
    contributes nothing to the statistics.  Closed-loop warm-up
    runs at the same concurrency as the measure phase; open-loop warm-up
    runs closed at the outstanding-request cap (warming at the Poisson rate
    would just prolong the test).

    When the sampler carries a tenant list each request is routed to its
    Zipf-assigned model.  ``max_retries > 0`` enables client-side retries of
    typed 429/503 responses (see :class:`RetryPolicy`); retried requests
    count once in the latency statistics but the per-status retry tallies
    land in the report.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if warmup_requests < 0:
        raise ValueError(f"warmup_requests must be >= 0, got {warmup_requests}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    total = warmup_requests + num_requests
    rows = [row for _, row in sampler.stream(total)]
    warmup_rows, measure_rows = rows[:warmup_requests], rows[warmup_requests:]
    models = sampler.model_names(total)
    warmup_models = None if models is None else models[:warmup_requests]
    measure_models = None if models is None else models[warmup_requests:]
    retry = None
    if max_retries > 0:
        retry = RetryPolicy(
            max_retries=max_retries,
            backoff_seconds=retry_backoff_seconds,
            seed=sampler.seed,
        )

    warmup_phase = _Phase()
    if warmup_rows:
        warmup_concurrency = (
            traffic.concurrency
            if isinstance(traffic, ClosedLoop)
            else traffic.max_outstanding
        )
        _run_closed(
            target,
            warmup_rows,
            warmup_concurrency,
            warmup_phase,
            models=warmup_models,
            retry=retry,
        )

    # Server-side view: snapshot the target's metrics around the measure
    # phase so the report can say what the *server* saw (rows scored, batch
    # coalescing) — not just what the clients felt.
    metrics_before = _safe_metrics(target)

    measure_phase = _Phase()
    if isinstance(traffic, ClosedLoop):
        duration = _run_closed(
            target,
            measure_rows,
            traffic.concurrency,
            measure_phase,
            models=measure_models,
            retry=retry,
        )
    else:
        duration = _run_open(
            target,
            measure_rows,
            traffic,
            measure_phase,
            models=measure_models,
            retry=retry,
        )

    metrics_after = _safe_metrics(target)
    server_metrics = None
    if metrics_before is not None and metrics_after is not None:
        server_metrics = server_metrics_delta(metrics_before, metrics_after)

    exemplars = None
    if metrics_after is not None:
        exemplars = _collect_exemplars(metrics_after)

    return build_report(
        target=target.describe(),
        traffic=traffic.describe(),
        sampler=sampler,
        num_requests=num_requests,
        warmup_requests=warmup_requests,
        warmup_errors=warmup_phase.errors,
        latencies=measure_phase.latencies,
        errors=measure_phase.errors,
        duration_seconds=duration,
        server_metrics=server_metrics,
        errors_by_status=measure_phase.errors_by_status,
        errors_by_code=measure_phase.errors_by_code,
        untyped_errors=measure_phase.untyped_errors,
        deadline_violations=measure_phase.deadline_violations,
        retries=measure_phase.retries,
        retries_by_status=measure_phase.retries_by_status,
        retry_policy=None if retry is None else retry.describe(),
        exemplars=exemplars,
    )


def _collect_exemplars(snapshot: dict) -> Optional[list]:
    """Latency-histogram trace exemplars from a ``/v1/metrics`` snapshot,
    slowest first — the report's proof that the exemplar plumbing linked
    slow buckets back to trace IDs during the soak."""
    exemplars = []
    for name, model in snapshot.get("models", {}).items():
        for bucket in model.get("latency", {}).get("buckets", []):
            exemplar = bucket.get("exemplar")
            if exemplar is not None:
                exemplars.append(
                    {
                        "model": name,
                        "le": bucket.get("le"),
                        "trace_id": exemplar.get("trace_id"),
                        "value_ms": float(exemplar.get("value", 0.0)) * 1e3,
                    }
                )
    if not exemplars:
        return None
    exemplars.sort(key=lambda row: row["value_ms"], reverse=True)
    return exemplars


def _safe_metrics(target) -> Optional[dict]:
    snapshot = getattr(target, "metrics_snapshot", None)
    if snapshot is None:
        return None
    try:
        return snapshot()
    except Exception:  # pragma: no cover - target without a serving app
        return None


__all__ = [
    "HTTPTarget",
    "InProcessTarget",
    "RetryPolicy",
    "TargetError",
    "run_load_test",
]
