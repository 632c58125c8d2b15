"""repro.faults — seeded deterministic fault injection for chaos testing.

The serving/cluster tier's failure story is only trustworthy if it is
*rehearsed*: this package provides the picklable :class:`FaultPlan` that the
dispatcher ships into every worker process, where a :class:`FaultInjector`
deterministically injects crashes, hangs, slow replies, error replies, and
dropped pipes keyed by ``(seed, worker_index, request_count)``.  Activated
per-dispatcher (``ClusterDispatcher(..., fault_plan=...)``), per-run
(``repro loadgen --faults quick``), or globally via the ``REPRO_FAULTS``
environment variable.

See ``docs/robustness.md`` for the fault taxonomy and the hardening each
kind exercises.
"""

from repro.faults.plan import (
    ENV_SEED_VAR,
    ENV_VAR,
    FAULT_KINDS,
    PRESETS,
    FaultInjector,
    FaultPlan,
    FaultRule,
)

__all__ = [
    "ENV_SEED_VAR",
    "ENV_VAR",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "PRESETS",
]
