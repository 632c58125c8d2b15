"""repro.obs — end-to-end observability for the serving stack.

Capabilities, each usable on its own and composed by the serving layer:

* :mod:`repro.obs.trace` — request-scoped tracing: every sampled request
  gets a trace ID and a span tree (validate → cache lookup → queue wait →
  batch execute → respond) written as JSONL by a single writer; span
  context is a small tuple handed explicitly to the micro-batch collector
  thread, so its spans stitch back into the request's trace;
* :mod:`repro.obs.sketch` — a DDSketch-style mergeable quantile sketch with
  a bounded relative error and fixed memory; it backs every latency
  percentile in the stack;
* :mod:`repro.obs.slo` — declarative per-tenant SLOs (availability +
  latency objective) evaluated with multiwindow burn rates; structured
  alerts on the ``repro.serve.slo`` logger, verdicts in ``/v1/metrics``;
* :mod:`repro.obs.prometheus` — pure-function rendering of the
  ``/v1/metrics`` snapshot into Prometheus text exposition (served at
  ``GET /metrics``), with OpenMetrics trace exemplars on latency buckets;
* :mod:`repro.obs.summary` — trace-file analysis behind
  ``repro trace-summary`` (per-stage latency breakdowns, stitching checks,
  slowest-trace exemplars);
* :mod:`repro.obs.console` — the ``repro top`` live terminal dashboard
  over a serving endpoint's ``/v1/metrics``.

This package deliberately imports nothing from :mod:`repro.serve` — it is
a leaf that layer builds on.
"""

from repro.obs.console import build_view, render_view, run_console
from repro.obs.prometheus import CONTENT_TYPE, render_prometheus, validate_exposition
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import SLOConfig, SLOEngine, SLOSpec
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    Span,
    SpanContext,
    Tracer,
    configure_tracing,
    get_tracer,
    parse_trace_file,
    set_tracer,
)
from repro.obs.summary import (
    format_trace_summary,
    slowest_exemplars,
    summarize_spans,
    summarize_trace_file,
)

__all__ = [
    "CONTENT_TYPE",
    "JsonlSink",
    "MemorySink",
    "QuantileSketch",
    "SLOConfig",
    "SLOEngine",
    "SLOSpec",
    "Span",
    "SpanContext",
    "Tracer",
    "build_view",
    "configure_tracing",
    "format_trace_summary",
    "get_tracer",
    "parse_trace_file",
    "render_prometheus",
    "render_view",
    "run_console",
    "set_tracer",
    "slowest_exemplars",
    "summarize_spans",
    "summarize_trace_file",
    "validate_exposition",
]
