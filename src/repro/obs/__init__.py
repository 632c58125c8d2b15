"""repro.obs — end-to-end observability for the serving stack.

Capabilities, each usable on its own and composed by the serving layer:

* :mod:`repro.obs.trace` — request-scoped tracing: every sampled request
  gets a trace ID and a span tree (validate → batch execute → respond)
  written as JSONL by a single writer;
* :mod:`repro.obs.prometheus` — pure-function rendering of the serving
  metrics snapshot into Prometheus text exposition (served at
  ``GET /metrics``), with OpenMetrics trace exemplars on latency buckets;
  SLO burn-rate alerting is Prometheus rules over these series
  (``docs/observability.md``), not state kept in the server;
* :mod:`repro.obs.summary` — trace-file analysis behind
  ``repro trace-summary`` (per-stage latency breakdowns, stitching checks,
  slowest-trace exemplars).

This package deliberately imports nothing from :mod:`repro.serve` — it is a
leaf the serving layer (and the CLI) builds on.
"""

from repro.obs.prometheus import CONTENT_TYPE, render_prometheus, validate_exposition
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    Span,
    Tracer,
    parse_trace_file,
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
    "Span",
    "Tracer",
    "format_trace_summary",
    "parse_trace_file",
    "render_prometheus",
    "slowest_exemplars",
    "summarize_spans",
    "summarize_trace_file",
    "validate_exposition",
]
