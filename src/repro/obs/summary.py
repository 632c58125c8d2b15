"""Trace-file analysis: per-stage latency breakdowns for ``repro trace-summary``.

A trace file is small (one line per span, written only for sampled requests),
so the summary works on exact durations — no histogram bucketing — and can
afford per-trace stitching checks: how many traces are complete trees, and
which stage dominates the critical path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.obs.trace import parse_trace_file

#: Canonical stage ordering for display; unknown stages sort after these.
STAGE_ORDER = (
    "request",
    "validate",
    "batch_execute",
    "respond",
)


def summarize_spans(spans: Sequence[Dict]) -> Dict[str, object]:
    """Aggregate span records into per-stage statistics.

    Returns ``{"traces": N, "stages": {name: {count, mean_ms, p50_ms,
    p95_ms, p99_ms, max_ms, total_ms}}, "orphans": M}`` where *orphans*
    counts spans whose ``parent`` id never appears in the file (beyond
    roots) — a stitching failure indicator.
    """
    by_stage: Dict[str, List[float]] = {}
    span_ids = set()
    traces = set()
    for span in spans:
        by_stage.setdefault(span["name"], []).append(float(span["dur_ms"]))
        span_ids.add(span["span"])
        traces.add(span["trace"])
    orphans = sum(
        1 for span in spans if span.get("parent") and span["parent"] not in span_ids
    )
    stages = {}
    for name, durations in by_stage.items():
        values = np.asarray(durations, dtype=np.float64)
        stages[name] = {
            "count": int(values.size),
            "mean_ms": float(values.mean()),
            "p50_ms": float(np.percentile(values, 50)),
            "p95_ms": float(np.percentile(values, 95)),
            "p99_ms": float(np.percentile(values, 99)),
            "max_ms": float(values.max()),
            "total_ms": float(values.sum()),
        }
    return {"traces": len(traces), "spans": len(spans), "orphans": orphans, "stages": stages}


def summarize_trace_file(path) -> Dict[str, object]:
    """Parse *path* (JSONL trace file) and summarise it."""
    return summarize_spans(parse_trace_file(path))


def slowest_exemplars(
    spans: Sequence[Dict], k: int = 5, stage: str = "request"
) -> List[Dict[str, object]]:
    """The *k* slowest *stage* spans, slowest first — the trace-file side of
    the exemplar story: the metrics exemplars point at the worst recent
    ``trace_id``; this answers "which traces were worst over the whole file".
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = sorted(
        (span for span in spans if span["name"] == stage),
        key=lambda span: float(span["dur_ms"]),
        reverse=True,
    )
    return [
        {
            "trace_id": span["trace"],
            "dur_ms": float(span["dur_ms"]),
            "model": (span.get("attrs") or {}).get("model"),
        }
        for span in rows[:k]
    ]


def format_exemplars(exemplars: Sequence[Dict], stage: str = "request") -> str:
    """Render :func:`slowest_exemplars` output as a table."""
    from repro.eval.tables import format_table

    rows = [
        [
            row["trace_id"],
            row["model"] or "-",
            f"{row['dur_ms']:.3f}",
        ]
        for row in exemplars
    ]
    return format_table(
        ["trace id", "model", "dur ms"],
        rows,
        title=f"Slowest {stage!r} spans (trace exemplars)",
    )


def _stage_sort_key(name: str):
    try:
        return (0, STAGE_ORDER.index(name))
    except ValueError:
        return (1, name)


def format_trace_summary(summary: Dict[str, object], title: Optional[str] = None) -> str:
    """Render a per-stage latency table from :func:`summarize_spans` output."""
    from repro.eval.tables import format_table

    rows = []
    for name in sorted(summary["stages"], key=_stage_sort_key):
        stage = summary["stages"][name]
        rows.append(
            [
                name,
                str(stage["count"]),
                f"{stage['mean_ms']:.3f}",
                f"{stage['p50_ms']:.3f}",
                f"{stage['p95_ms']:.3f}",
                f"{stage['p99_ms']:.3f}",
                f"{stage['max_ms']:.3f}",
            ]
        )
    header = ["stage", "count", "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms"]
    caption = title or (
        f"Trace summary: {summary['traces']} traces, {summary['spans']} spans"
        + (f", {summary['orphans']} orphan spans" if summary["orphans"] else "")
    )
    return format_table(header, rows, title=caption)


__all__ = [
    "STAGE_ORDER",
    "format_exemplars",
    "format_trace_summary",
    "slowest_exemplars",
    "summarize_spans",
    "summarize_trace_file",
]
