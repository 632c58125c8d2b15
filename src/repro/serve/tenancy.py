"""Per-tenant admission control and degradation primitives.

A multi-tenant fleet front-ends many models ("tenants") behind one server;
one tenant's burst must not starve the others.  This module holds the two
small, independently testable pieces the server composes:

* :class:`TokenBucket` — the classic leaky-bucket rate limiter.  Pure
  arithmetic over an injected monotonic clock, so tests never sleep;
* :class:`TenantQuotas` — per-tenant (keyed by model name) admission: a
  token bucket bounds sustained request rate and a concurrency counter
  bounds in-flight work.  Rejections are *typed* —
  :class:`TenantRateLimitedError` / :class:`TenantQuotaExceededError` each
  carry a ``retry_after`` hint the HTTP layer forwards verbatim, so a
  shed client learns *when* to come back, not just that it was shed.

Quota configuration is plain JSON (see :meth:`TenantQuotas.from_file`)::

    {
      "defaults": {"rps": 50, "burst": 100, "max_concurrent": 8},
      "tenants": {
        "premium": {"rps": 500, "burst": 1000, "max_concurrent": 64},
        "batch":   {"rps": 5, "max_concurrent": 2}
      }
    }

Unset fields fall back to the defaults; a ``null`` field disables that
limit for the tenant.
"""

from __future__ import annotations

import json
import math
import numbers
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Union


class TenantAdmissionError(Exception):
    """Base class for typed tenant-admission rejections.

    ``retry_after`` is the suggested back-off in (fractional) seconds; the
    HTTP layer rounds it up for the ``Retry-After`` header while load
    generators may honour the precise value.
    """

    code = "tenant_rejected"

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class TenantRateLimitedError(TenantAdmissionError):
    """The tenant's token bucket is empty — back off ``retry_after``."""

    code = "tenant_rate_limited"


class TenantQuotaExceededError(TenantAdmissionError):
    """The tenant is at its concurrency quota — finish something first."""

    code = "tenant_quota_exceeded"


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, ``burst`` deep.

    The bucket starts full.  :meth:`try_acquire` never blocks: it returns
    ``None`` on success or the (fractional) seconds until the requested
    tokens will have accrued.  The clock is injectable so tests can drive
    time explicitly.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst <= 0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, tokens: float = 1.0) -> Optional[float]:
        """Take *tokens* now if available; else return seconds until refill."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return None
            return (tokens - self._tokens) / self.rate

    @property
    def available(self) -> float:
        """Current token balance (refreshed to the injected clock)."""
        with self._lock:
            self._refill_locked()
            return self._tokens


class _TenantState:
    """Admission state for one tenant: bucket + concurrency + shed counts."""

    __slots__ = (
        "bucket",
        "max_concurrent",
        "in_flight",
        "admitted",
        "rate_limited",
        "quota_exceeded",
    )

    def __init__(self, bucket: Optional[TokenBucket], max_concurrent: Optional[int]):
        self.bucket = bucket
        self.max_concurrent = max_concurrent
        self.in_flight = 0
        self.admitted = 0
        self.rate_limited = 0
        self.quota_exceeded = 0


class TenantLease:
    """One admitted request's hold on its tenant's concurrency quota.

    ``release()`` is idempotent; use as a context manager or call it from a
    ``finally`` so a failing request never leaks its slot.
    """

    __slots__ = ("_quotas", "_tenant", "_released")

    def __init__(self, quotas: "TenantQuotas", tenant: str):
        self._quotas = quotas
        self._tenant = tenant
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._quotas._release(self._tenant)

    def __enter__(self) -> "TenantLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


_QUOTA_FIELDS = ("rps", "burst", "max_concurrent")


def _check_limit(field: str, value, where: str) -> None:
    """Raise ``ValueError`` unless *value* is ``None`` (the limit is off) or a
    usable *field* limit: a finite ``rps``/``burst`` above 0, a
    ``max_concurrent`` of at least 1."""
    if value is None:
        return
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if field == "max_concurrent":
        if not (number and 1 <= value < math.inf):
            raise ValueError(f"{where}max_concurrent must be >= 1, got {value!r}")
    elif not (number and 0 < value < math.inf):
        raise ValueError(f"{where}{field} must be a finite number > 0, got {value!r}")


class TenantQuotas:
    """Per-tenant token-bucket rate limiting plus concurrency quotas.

    Parameters
    ----------
    rps / burst / max_concurrent:
        Fleet-wide defaults applied to every tenant without an override.
        ``rps=None`` disables rate limiting, ``max_concurrent=None``
        disables the concurrency quota; ``burst`` defaults to
        ``max(1, 2 * rps)`` when unset.
    tenants:
        Optional ``{name: {"rps": ..., "burst": ..., "max_concurrent": ...}}``
        overrides; unset fields inherit the defaults, explicit ``None``
        disables that limit for the tenant.
    clock:
        Injectable monotonic clock shared by every bucket.

    Every default and override is checked here, so a bad limit fails at
    start-up with a ``ValueError`` rather than on the tenant's first request.
    """

    def __init__(
        self,
        rps: Optional[float] = None,
        burst: Optional[float] = None,
        max_concurrent: Optional[int] = None,
        tenants: Optional[Dict[str, dict]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        for field, value in zip(_QUOTA_FIELDS, (rps, burst, max_concurrent)):
            _check_limit(field, value, "")
        tenants = {} if tenants is None else tenants
        if not isinstance(tenants, dict):
            raise ValueError("'tenants' must be a JSON object")
        for name, policy in tenants.items():
            if not isinstance(policy, dict):
                raise ValueError(f"tenant {name!r} policy must be a JSON object")
            unknown = set(policy) - set(_QUOTA_FIELDS)
            if unknown:
                raise ValueError(
                    f"tenant {name!r} has unknown quota fields {sorted(unknown)}"
                )
            for field, value in policy.items():
                _check_limit(field, value, f"tenant {name!r}: ")
        self.default_rps = rps
        self.default_burst = burst
        self.default_max_concurrent = max_concurrent
        self._overrides = {str(name): dict(policy) for name, policy in tenants.items()}
        self._clock = clock
        self._states: Dict[str, _TenantState] = {}
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: Union[str, Path], **kwargs) -> "TenantQuotas":
        """Load a quotas config from a JSON file (schema in module docs).

        Keyword arguments (e.g. ``clock``) are forwarded to the
        constructor; the file's ``defaults`` lose to explicit keyword
        defaults only when the file omits them.
        """
        raw = json.loads(Path(path).read_text())
        if not isinstance(raw, dict):
            raise ValueError(f"quotas file {path} must hold a JSON object")
        defaults = raw.get("defaults", {})
        if not isinstance(defaults, dict):
            raise ValueError("'defaults' must be a JSON object")
        unknown = set(defaults) - set(_QUOTA_FIELDS)
        if unknown:
            raise ValueError(f"'defaults' has unknown quota fields {sorted(unknown)}")
        return cls(
            rps=kwargs.pop("rps", defaults.get("rps")),
            burst=kwargs.pop("burst", defaults.get("burst")),
            max_concurrent=kwargs.pop(
                "max_concurrent", defaults.get("max_concurrent")
            ),
            tenants=raw.get("tenants"),
            **kwargs,
        )

    # -------------------------------------------------------------- admission
    def admit(self, tenant: str) -> TenantLease:
        """Admit one request for *tenant* or raise a typed rejection.

        Checks the concurrency quota first (it is free to release), then
        spends a rate token; on success the returned :class:`TenantLease`
        must be released when the request finishes.
        """
        state = self._state(tenant)
        with self._lock:
            if (
                state.max_concurrent is not None
                and state.in_flight >= state.max_concurrent
            ):
                state.quota_exceeded += 1
                raise TenantQuotaExceededError(
                    f"tenant {tenant!r} is at its concurrency quota "
                    f"({state.max_concurrent} in flight)",
                    retry_after=1.0,
                )
            if state.bucket is not None:
                wait = state.bucket.try_acquire()
                if wait is not None:
                    state.rate_limited += 1
                    raise TenantRateLimitedError(
                        f"tenant {tenant!r} exceeded its rate limit "
                        f"({state.bucket.rate:g} rps, burst "
                        f"{state.bucket.burst:g})",
                        retry_after=max(wait, 1e-3),
                    )
            state.in_flight += 1
            state.admitted += 1
        return TenantLease(self, tenant)

    def _release(self, tenant: str) -> None:
        with self._lock:
            state = self._states.get(tenant)
            if state is not None and state.in_flight > 0:
                state.in_flight -= 1

    # ---------------------------------------------------------------- queries
    def snapshot(self) -> Dict[str, object]:
        """Per-tenant admission counters for the ``/metrics`` exposition."""
        with self._lock:
            tenants = {
                name: {
                    "in_flight": state.in_flight,
                    "admitted": state.admitted,
                    "rate_limited": state.rate_limited,
                    "quota_exceeded": state.quota_exceeded,
                }
                for name, state in sorted(self._states.items())
            }
        return {
            "defaults": {
                "rps": self.default_rps,
                "burst": self.default_burst,
                "max_concurrent": self.default_max_concurrent,
            },
            "tenants": tenants,
        }

    # -------------------------------------------------------------- internals
    def _state(self, tenant: str) -> _TenantState:
        with self._lock:
            state = self._states.get(tenant)
            if state is None:
                state = self._states[tenant] = self._build_state(tenant)
            return state

    def _build_state(self, tenant: str) -> _TenantState:
        policy = self._overrides.get(tenant, {})
        rps = policy.get("rps", self.default_rps)
        burst = policy.get("burst", self.default_burst)
        max_concurrent = policy.get("max_concurrent", self.default_max_concurrent)
        bucket = None
        if rps is not None:
            if burst is None:
                burst = max(1.0, 2.0 * float(rps))
            bucket = TokenBucket(float(rps), float(burst), clock=self._clock)
        if max_concurrent is not None:
            max_concurrent = int(max_concurrent)
        return _TenantState(bucket, max_concurrent)


def retry_after_header(seconds: float) -> int:
    """Round a fractional back-off up to the integral ``Retry-After`` form."""
    return max(1, int(math.ceil(float(seconds))))


__all__ = [
    "TenantAdmissionError",
    "TenantLease",
    "TenantQuotas",
    "TenantRateLimitedError",
    "TenantQuotaExceededError",
    "TokenBucket",
    "retry_after_header",
]
