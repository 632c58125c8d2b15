"""Exception types for the multiprocess serving tier.

These live in their own dependency-free module so the HTTP front-end can map
them to status codes (``WorkerCrashedError`` → 503) without importing the
multiprocessing machinery — and without creating an import cycle between
``repro.serve`` and ``repro.cluster``.
"""

from __future__ import annotations


class ClusterError(RuntimeError):
    """Base class for multiprocess serving-tier failures."""


class WorkerCrashedError(ClusterError):
    """An inference worker process died while handling a request.

    The dispatcher respawns the worker before raising this, so the *next*
    request succeeds; the in-flight one is reported as a retryable failure
    (the HTTP layer answers 503).
    """


class WorkerStartupError(ClusterError):
    """A worker process failed to come up within the startup timeout."""


class DispatcherClosedError(ClusterError):
    """The dispatcher was closed while this request held a reference to it.

    Raised (instead of a bare ``RuntimeError``) so the serving layer can map
    a hot-swap race — the promoted version's dispatcher replaced this one
    mid-request — to a retryable 503 rather than an opaque 500.
    """


class WorkerFaultError(ClusterError):
    """A worker reported a transient request-level fault (retryable).

    Covers injected ``error``-reply faults from :mod:`repro.faults` and any
    future transient worker-side condition that should be retried on the
    pool before surfacing 503 — distinct from ``ValueError`` (the caller's
    fault, 400) and from a crash (the process is gone).
    """


class DeadlineExceededError(ClusterError):
    """The request's deadline expired before scoring completed.

    Deadlines are absolute ``time.monotonic()`` instants that ride the HTTP
    request into the request frame; workers refuse to score expired
    shards and the dispatcher abandons shards whose deadline passes while a
    worker holds them.  The HTTP layer answers 504 — the work is dead, not
    retryable.
    """


__all__ = [
    "ClusterError",
    "DeadlineExceededError",
    "DispatcherClosedError",
    "WorkerCrashedError",
    "WorkerFaultError",
    "WorkerStartupError",
]
