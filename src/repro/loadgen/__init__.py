"""repro.loadgen — client-side load generation for soak-testing the server.

The serving benchmarks measure the engine from the inside; this subpackage
measures it the way a *caller* experiences it, with reproducible traffic:

* :mod:`repro.loadgen.sampler` — :class:`RequestSampler` draws request
  feature rows from any registered dataset with a seed-stable stream (the
  same seed always produces the same request sequence, byte for byte —
  verified by a digest carried in every report);
* :mod:`repro.loadgen.traffic` — the two classic traffic models:
  :class:`OpenLoop` (Poisson arrivals at a target rate, latency includes
  queueing — the honest soak-test model) and :class:`ClosedLoop`
  (``concurrency`` outstanding requests, the throughput-ceiling model);
* :mod:`repro.loadgen.runner` — :func:`run_load_test` drives a target
  through warm-up and measure phases and collects exact latency
  percentiles; targets are :class:`InProcessTarget` (a ``ServeApp``, no
  network) or :class:`HTTPTarget` (a live ``repro serve`` endpoint);
* :mod:`repro.loadgen.report` — JSON report building/validation/formatting,
  output-compatible with the files under ``benchmarks/results/``.

``python -m repro loadgen`` is the CLI front-end; ``--quick`` is the CI
smoke mode (in-process target, fixed seed, report well-formedness asserted).
"""

from repro.loadgen.report import (
    build_report,
    format_report,
    validate_report,
    validate_slo_report,
    write_report,
)
from repro.loadgen.runner import (
    HTTPTarget,
    InProcessTarget,
    RetryPolicy,
    TargetError,
    run_load_test,
)
from repro.loadgen.sampler import RequestSampler
from repro.loadgen.traffic import ClosedLoop, OpenLoop

__all__ = [
    "ClosedLoop",
    "HTTPTarget",
    "InProcessTarget",
    "OpenLoop",
    "RequestSampler",
    "RetryPolicy",
    "TargetError",
    "build_report",
    "format_report",
    "run_load_test",
    "validate_report",
    "validate_slo_report",
    "write_report",
]
