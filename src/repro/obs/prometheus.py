"""Prometheus text-exposition rendering of the serving metrics snapshot.

:func:`render_prometheus` turns the dictionary
:meth:`~repro.serve.server.ServeApp.metrics_snapshot` returns into the `text
exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ served at
``GET /metrics`` — no client library, no registry object, just a pure
function over the snapshot, which keeps it trivially testable (the format is
pinned by a golden test) and free of extra state to keep consistent.

Conventions:

* counters end in ``_total``; latency histograms follow the native
  ``_bucket``/``_sum``/``_count`` triplet with cumulative ``le`` labels
  (which is why :class:`~repro.serve.metrics.LatencyHistogram` snapshots
  carry their raw cumulative bucket counts);
* per-model series carry a ``model`` label, per-stage histograms add
  ``stage``;
* per-tenant admission counters are ``repro_tenant_*`` with a ``tenant``
  label;
* latency buckets that captured a traced request carry an OpenMetrics
  exemplar annotation (``... 12 # {trace_id="..."} 0.089 1700000000``) so
  a scrape can link a p99 spike to a span tree.  Exemplars are a pure
  suffix — scrapers speaking only the classic text format can ignore them,
  and :func:`validate_exposition` checks their syntax.
"""

from __future__ import annotations

import re
from typing import Dict, List

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: OpenMetrics exemplar suffix: ``{label="value",...} value [timestamp]``.
_EXEMPLAR_RE = re.compile(
    r'^\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\}'
    r" -?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
    r"(?: \d+(?:\.\d+)?(?:[eE][+-]?\d+)?)?$"
)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(**labels: object) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{_escape(str(value))}"' for key, value in labels.items())
    return "{" + body + "}"


def _number(value) -> str:
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class _Writer:
    """Accumulates exposition lines, emitting HELP/TYPE once per metric."""

    def __init__(self):
        self.lines: List[str] = []
        self._declared = set()

    def declare(self, name: str, kind: str, help_text: str) -> None:
        if name in self._declared:
            return
        self._declared.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(self, name: str, value, _suffix: str = "", **labels) -> None:
        self.lines.append(f"{name}{_labels(**labels)} {_number(value)}{_suffix}")


def _render_histogram(
    writer: _Writer,
    name: str,
    help_text: str,
    latency: Dict,
    **labels,
) -> None:
    """Emit one ``_bucket``/``_sum``/``_count`` triplet from a latency
    snapshot carrying cumulative ``buckets`` (skipped when absent).

    Buckets carrying an ``exemplar`` (most recent traced observation in
    that bucket's range) get an OpenMetrics exemplar suffix.
    """
    buckets = latency.get("buckets")
    if buckets is None:
        return
    writer.declare(name, "histogram", help_text)
    for entry in buckets:
        suffix = ""
        exemplar = entry.get("exemplar")
        if exemplar:
            suffix = (
                f' # {{trace_id="{_escape(str(exemplar["trace_id"]))}"}}'
                f' {_number(exemplar["value"])}'
                f' {_number(exemplar.get("timestamp", 0.0))}'
            )
        writer.sample(
            f"{name}_bucket", entry["count"], _suffix=suffix, **labels, le=entry["le"]
        )
    writer.sample(f"{name}_sum", latency.get("sum_seconds", 0.0), **labels)
    writer.sample(f"{name}_count", latency.get("count", 0), **labels)


def render_prometheus(snapshot: Dict) -> str:
    """Render a ``ServeApp.metrics_snapshot()`` dictionary as Prometheus text
    exposition."""
    writer = _Writer()

    for model, metrics in sorted(snapshot.get("models", {}).items()):
        writer.declare(
            "repro_requests_total", "counter", "Completed inference requests."
        )
        writer.sample("repro_requests_total", metrics["requests"], model=model)
        writer.declare("repro_samples_total", "counter", "Samples scored.")
        writer.sample("repro_samples_total", metrics["samples"], model=model)
        writer.declare("repro_errors_total", "counter", "Failed requests.")
        writer.sample("repro_errors_total", metrics["errors"], model=model)
        writer.declare(
            "repro_deadline_exceeded_total",
            "counter",
            "Requests that missed their deadline (HTTP 504).",
        )
        writer.sample(
            "repro_deadline_exceeded_total",
            metrics.get("deadline_exceeded", 0),
            model=model,
        )

        writer.declare(
            "repro_batches_total", "counter", "Coalesced micro-batches executed."
        )
        writer.sample("repro_batches_total", metrics.get("batches", 0), model=model)

        _render_histogram(
            writer,
            "repro_request_latency_seconds",
            "End-to-end request latency.",
            metrics.get("latency", {}),
            model=model,
        )
        for stage, latency in sorted(metrics.get("stages", {}).items()):
            _render_histogram(
                writer,
                "repro_stage_latency_seconds",
                "Per-stage latency (validate, queue_wait, batch_execute).",
                latency,
                model=model,
                stage=stage,
            )

    for model, scheduler in sorted(snapshot.get("schedulers", {}).items()):
        writer.declare(
            "repro_scheduler_queue_depth",
            "gauge",
            "Requests waiting in the micro-batch queue.",
        )
        writer.sample(
            "repro_scheduler_queue_depth", scheduler["queue_depth"], model=model
        )

    tenancy = snapshot.get("tenancy")
    if tenancy is not None:
        for tenant, stats in sorted((tenancy.get("tenants") or {}).items()):
            writer.declare(
                "repro_tenant_admitted_total",
                "counter",
                "Requests admitted past tenant quotas.",
            )
            writer.sample(
                "repro_tenant_admitted_total",
                stats.get("admitted", 0),
                tenant=tenant,
            )
            writer.declare(
                "repro_tenant_rate_limited_total",
                "counter",
                "Requests shed by the tenant token bucket (429).",
            )
            writer.sample(
                "repro_tenant_rate_limited_total",
                stats.get("rate_limited", 0),
                tenant=tenant,
            )
            writer.declare(
                "repro_tenant_quota_exceeded_total",
                "counter",
                "Requests shed at the tenant concurrency quota (429).",
            )
            writer.sample(
                "repro_tenant_quota_exceeded_total",
                stats.get("quota_exceeded", 0),
                tenant=tenant,
            )
            writer.declare(
                "repro_tenant_in_flight",
                "gauge",
                "Requests currently holding a tenant admission lease.",
            )
            writer.sample(
                "repro_tenant_in_flight", stats.get("in_flight", 0), tenant=tenant
            )

    return "\n".join(writer.lines) + "\n" if writer.lines else ""


def validate_exposition(text: str) -> None:
    """Raise ``ValueError`` unless *text* is plausibly valid exposition format.

    A light structural check used by tests and the CI smoke: every sample
    line parses as ``name{labels} value``, every samples' metric family was
    declared with ``# TYPE``, histogram bucket counts are cumulative, and
    OpenMetrics exemplar suffixes (`` # {trace_id="..."} value [ts]``) are
    well-formed and only attached to ``_bucket`` samples.
    """
    declared = set()
    bucket_runs: Dict[str, List[float]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("# HELP"):
            continue
        if line.startswith("# TYPE"):
            declared.add(line.split()[2])
            continue
        line, exemplar_sep, exemplar = line.partition(" # ")
        name, _, rest = line.partition("{") if "{" in line else line.partition(" ")
        family = name.split("{")[0]
        base = family
        for suffix in ("_bucket", "_sum", "_count"):
            if family.endswith(suffix):
                base = family[: -len(suffix)]
        if family not in declared and base not in declared:
            raise ValueError(f"line {line_number}: {family!r} has no # TYPE")
        if exemplar_sep:
            if not family.endswith("_bucket"):
                raise ValueError(
                    f"line {line_number}: exemplar on non-bucket sample {family!r}"
                )
            if not _EXEMPLAR_RE.match(exemplar):
                raise ValueError(
                    f"line {line_number}: malformed exemplar {exemplar!r}"
                )
        try:
            float(line.rsplit(" ", 1)[1])
        except (IndexError, ValueError):
            raise ValueError(f"line {line_number}: unparseable sample {line!r}")
        if family.endswith("_bucket"):
            # The series key is everything except the ``le`` label, whether
            # or not other labels precede it.
            series = line.rsplit(" ", 1)[0]
            for separator in (',le="', '{le="'):
                if separator in series:
                    series = series.rsplit(separator, 1)[0]
                    break
            run = bucket_runs.setdefault(series, [])
            run.append(float(line.rsplit(" ", 1)[1]))
    for series, counts in bucket_runs.items():
        if counts != sorted(counts):
            raise ValueError(f"histogram buckets not cumulative for {series!r}")


__all__ = ["CONTENT_TYPE", "render_prometheus", "validate_exposition"]
