"""Per-tenant SLO evaluation: error budgets, multi-window burn rates, alerts.

An SLO here is the standard two-part serving objective:

* an **availability target** (e.g. 99.9% of requests succeed), whose
  complement is the tenant's *error budget*;
* a **latency objective** (e.g. p99 <= 250 ms): a request slower than the
  threshold spends error budget exactly like a failed one, so "slow is the
  new down" falls out of the accounting instead of needing a second system.

Burn rate is the speed at which budget is being spent: a burn rate of 1
means the tenant exactly exhausts its budget over the SLO period; 14.4 means
a 30-day budget gone in two days.  Following the multiwindow, multi-burn-rate
alerting recipe (Google SRE workbook, ch. 5), the engine evaluates each
tenant over a **fast** (~5 min) and a **slow** (~1 h) rolling window on
monotonic time and fires only when *both* burn — the fast window makes
alerts responsive, the slow window stops a single bad second from paging.
Alert transitions (firing/resolved) are logged once, structured, on the
``repro.serve.slo`` logger.

Specs are declarative: a JSON file (``repro serve --slo-config slo.json``)
with a fleet-wide ``default`` and per-tenant overrides::

    {
      "default": {"availability": 0.999, "latency_ms": 250, "latency_percentile": 99},
      "tenants": {"model-0": {"availability": 0.99, "latency_ms": 100}}
    }

Tenant entries may be partial — unset fields inherit the default.  The
engine itself is clock-injectable and serving-agnostic: the serving layer
calls :meth:`SLOEngine.record` per request and :meth:`SLOEngine.snapshot`
from ``/v1/metrics``.  The engine keeps counters, not latencies: the
latency objective is read at snapshot time from the serving layer's own
per-model latency histogram, through the ``latency_at`` function it passes
in.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

logger = logging.getLogger("repro.serve.slo")

#: Fast/slow rolling-window lengths in seconds (~5 min / ~1 h).
FAST_WINDOW_SECONDS = 300.0
SLOW_WINDOW_SECONDS = 3600.0

#: Default page threshold: both windows burning >= 14.4x exhausts a 30-day
#: budget in under 2.1 days (the classic first-tier page condition).
DEFAULT_ALERT_BURN_RATE = 14.4


@dataclass(frozen=True)
class SLOSpec:
    """One tenant's objective: availability target + latency threshold."""

    availability: float = 0.999
    latency_ms: float = 250.0
    latency_percentile: float = 99.0

    def __post_init__(self):
        if not 0.0 < self.availability < 1.0:
            raise ValueError(
                f"availability must be in (0, 1), got {self.availability}"
            )
        if not self.latency_ms > 0.0:
            raise ValueError(f"latency_ms must be positive, got {self.latency_ms}")
        if not 0.0 < self.latency_percentile <= 100.0:
            raise ValueError(
                f"latency_percentile must be in (0, 100], got "
                f"{self.latency_percentile}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed bad-event fraction (1 - availability)."""
        return 1.0 - self.availability

    def merged(self, overrides: Dict[str, object]) -> "SLOSpec":
        """A spec with *overrides* applied over this one (partial dicts ok)."""
        if not isinstance(overrides, dict):
            raise ValueError(
                f"an SLO spec must be a JSON object, got {type(overrides).__name__}"
            )
        unknown = set(overrides) - {"availability", "latency_ms", "latency_percentile"}
        if unknown:
            raise ValueError(f"unknown SLO spec fields: {sorted(unknown)}")
        try:
            return SLOSpec(
                availability=float(overrides.get("availability", self.availability)),
                latency_ms=float(overrides.get("latency_ms", self.latency_ms)),
                latency_percentile=float(
                    overrides.get("latency_percentile", self.latency_percentile)
                ),
            )
        except TypeError as error:  # e.g. a null or a list where a number goes
            raise ValueError(f"SLO spec fields must be numbers: {error}") from None

    def to_dict(self) -> Dict[str, float]:
        return {
            "availability": self.availability,
            "latency_ms": self.latency_ms,
            "latency_percentile": self.latency_percentile,
        }


class SLOConfig:
    """A fleet default spec plus per-tenant overrides."""

    def __init__(
        self,
        default: Optional[SLOSpec] = None,
        tenants: Optional[Dict[str, SLOSpec]] = None,
    ):
        self.default = default or SLOSpec()
        self.tenants = dict(tenants or {})

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SLOConfig":
        if not isinstance(payload, dict):
            raise ValueError("SLO config must be a JSON object")
        unknown = set(payload) - {"default", "tenants"}
        if unknown:
            raise ValueError(f"unknown SLO config keys: {sorted(unknown)}")
        default = SLOSpec().merged(payload.get("default", {}))
        tenants_raw = payload.get("tenants", {})
        if not isinstance(tenants_raw, dict):
            raise ValueError("'tenants' must map tenant name -> spec object")
        tenants = {
            str(name): default.merged(spec) for name, spec in tenants_raw.items()
        }
        return cls(default=default, tenants=tenants)

    @classmethod
    def from_file(cls, path: "str | Path") -> "SLOConfig":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"invalid JSON in SLO config {path}: {error}") from None
        return cls.from_dict(payload)

    def for_tenant(self, name: str) -> SLOSpec:
        return self.tenants.get(name, self.default)

    def to_dict(self) -> Dict[str, object]:
        return {
            "default": self.default.to_dict(),
            "tenants": {name: spec.to_dict() for name, spec in self.tenants.items()},
        }


class _RollingWindow:
    """Good/bad counters over a rolling window of per-bucket cells.

    The ring is indexed by absolute bucket id modulo its size; a cell is
    lazily reset when a new bucket id claims its slot, so neither recording
    nor reading ever scans more than the ring.  Works on any monotonically
    non-decreasing clock.
    """

    def __init__(self, window_seconds: float, num_buckets: int = 60):
        self.window_seconds = float(window_seconds)
        self._bucket_seconds = self.window_seconds / num_buckets
        self._good = [0] * num_buckets
        self._bad = [0] * num_buckets
        self._ids = [-1] * num_buckets

    def _slot(self, now: float) -> int:
        bucket_id = int(now // self._bucket_seconds)
        slot = bucket_id % len(self._ids)
        if self._ids[slot] != bucket_id:
            self._ids[slot] = bucket_id
            self._good[slot] = 0
            self._bad[slot] = 0
        return slot

    def record(self, good: bool, now: float) -> None:
        slot = self._slot(now)
        if good:
            self._good[slot] += 1
        else:
            self._bad[slot] += 1

    def totals(self, now: float) -> Tuple[int, int]:
        """(good, bad) over the window ending at *now*."""
        current = int(now // self._bucket_seconds)
        good = bad = 0
        for slot, bucket_id in enumerate(self._ids):
            if bucket_id >= 0 and current - bucket_id < len(self._ids):
                good += self._good[slot]
                bad += self._bad[slot]
        return good, bad


class _TenantSLO:
    """Rolling + lifetime SLI state for one tenant."""

    def __init__(self, spec: SLOSpec):
        self.spec = spec
        self.fast = _RollingWindow(FAST_WINDOW_SECONDS)
        self.slow = _RollingWindow(SLOW_WINDOW_SECONDS)
        self.requests = 0
        self.bad_requests = 0
        self.failures = 0
        self.alerting = False

    def record(self, ok: bool, latency_s: float, now: float) -> bool:
        """Record one request; returns whether the event was *good*."""
        slow_request = latency_s * 1e3 > self.spec.latency_ms
        good = ok and not slow_request
        self.requests += 1
        if not ok:
            self.failures += 1
        if not good:
            self.bad_requests += 1
        self.fast.record(good, now)
        self.slow.record(good, now)
        return good

    @staticmethod
    def _burn(good: int, bad: int, budget: float) -> float:
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / budget

    def budget_remaining(self) -> float:
        """Lifetime error-budget fraction left (1.0 = untouched, 0.0 = blown).

        Clamped to [0, 1]: a tenant ten times over budget is just as
        breached as one barely over, and downstream consumers (reports,
        dashboards) treat this as a fraction.
        """
        if self.requests == 0:
            return 1.0
        consumed = (self.bad_requests / self.requests) / self.spec.error_budget
        return min(1.0, max(0.0, 1.0 - consumed))

    def evaluate(
        self, now: float, alert_burn_rate: float, objective_ms: float
    ) -> Dict[str, object]:
        """The tenant's SLO block; *objective_ms* is its latency at the
        spec's ``latency_percentile``."""
        budget = self.spec.error_budget
        fast_good, fast_bad = self.fast.totals(now)
        slow_good, slow_bad = self.slow.totals(now)
        fast_burn = self._burn(fast_good, fast_bad, budget)
        slow_burn = self._burn(slow_good, slow_bad, budget)
        remaining = self.budget_remaining()
        alerting = fast_burn >= alert_burn_rate and slow_burn >= alert_burn_rate
        if remaining <= 0.0:
            verdict = "breached"
        elif alerting:
            verdict = "at_risk"
        else:
            verdict = "ok"
        return {
            "spec": self.spec.to_dict(),
            "requests": self.requests,
            "bad_requests": self.bad_requests,
            "failures": self.failures,
            "budget_remaining": remaining,
            "windows": {
                "fast": {
                    "seconds": self.fast.window_seconds,
                    "good": fast_good,
                    "bad": fast_bad,
                    "burn_rate": fast_burn,
                },
                "slow": {
                    "seconds": self.slow.window_seconds,
                    "good": slow_good,
                    "bad": slow_bad,
                    "burn_rate": slow_burn,
                },
            },
            "latency": {
                "objective_ms": objective_ms,
                "objective_met": objective_ms <= self.spec.latency_ms,
            },
            "alerting": alerting,
            "verdict": verdict,
        }


class SLOEngine:
    """Evaluates every tenant's SLO and logs alert transitions.

    Thread-safe: the serving layer records from request threads while the
    metrics endpoint snapshots concurrently.

    Parameters
    ----------
    latency_at:
        ``latency_at(tenant, percentile)`` → the tenant's request latency in
        seconds at *percentile* (0.0 before its first answered request).
        :meth:`snapshot` reads each tenant's latency objective from it, so
        the engine keeps no latency distribution of its own.
    config:
        The objectives; ``None`` applies the fleet default to every tenant.
    clock:
        Monotonic clock for the rolling windows (injectable for tests).
    alert_burn_rate:
        Burn rate both windows must reach for an alert to fire.
    """

    def __init__(
        self,
        latency_at: Callable[[str, float], float],
        config: Optional[SLOConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        alert_burn_rate: float = DEFAULT_ALERT_BURN_RATE,
    ):
        if not alert_burn_rate > 0.0:
            raise ValueError(f"alert_burn_rate must be positive, got {alert_burn_rate}")
        self.config = config or SLOConfig()
        self.alert_burn_rate = float(alert_burn_rate)
        self._latency_at = latency_at
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, _TenantSLO] = {}

    def _tenant(self, name: str) -> _TenantSLO:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = _TenantSLO(self.config.for_tenant(name))
        return tenant

    def record(self, tenant: str, ok: bool, latency_s: float) -> None:
        """Record one request outcome for *tenant* and re-check its alert.

        ``ok`` is availability (did the request succeed); a successful
        request slower than the tenant's latency threshold still spends
        error budget.
        """
        now = self._clock()
        with self._lock:
            state = self._tenant(tenant)
            state.record(ok, float(latency_s), now)
            self._check_alert(tenant, state, now)

    def _check_alert(self, name: str, state: _TenantSLO, now: float) -> None:
        budget = state.spec.error_budget
        fast_burn = state._burn(*state.fast.totals(now), budget)
        slow_burn = state._burn(*state.slow.totals(now), budget)
        alerting = (
            fast_burn >= self.alert_burn_rate and slow_burn >= self.alert_burn_rate
        )
        if alerting == state.alerting:
            return
        state.alerting = alerting
        level = logging.WARNING if alerting else logging.INFO
        logger.log(
            level,
            "slo_alert tenant=%s state=%s burn_fast=%.2f burn_slow=%.2f "
            "budget_remaining=%.4f threshold=%.1f",
            name,
            "firing" if alerting else "resolved",
            fast_burn,
            slow_burn,
            state.budget_remaining(),
            self.alert_burn_rate,
        )

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready SLO state for ``/v1/metrics`` (the ``slo`` block)."""
        now = self._clock()
        with self._lock:
            tenants = {
                name: state.evaluate(
                    now,
                    self.alert_burn_rate,
                    self._latency_at(name, state.spec.latency_percentile) * 1e3,
                )
                for name, state in sorted(self._tenants.items())
            }
        return {
            "alert_burn_rate": self.alert_burn_rate,
            "default_spec": self.config.default.to_dict(),
            "tenants": tenants,
        }


__all__ = [
    "DEFAULT_ALERT_BURN_RATE",
    "FAST_WINDOW_SECONDS",
    "SLOW_WINDOW_SECONDS",
    "SLOConfig",
    "SLOEngine",
    "SLOSpec",
]
