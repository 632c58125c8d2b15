"""Unit tests for repro.obs.summary (the trace-summary analysis)."""

import pytest

from repro.obs.summary import (
    STAGE_ORDER,
    format_trace_summary,
    summarize_spans,
    summarize_trace_file,
)
from repro.obs.trace import JsonlSink, Tracer


def _span(name, trace="t1", span="s1", parent=None, dur_ms=1.0):
    return {
        "v": 1,
        "trace": trace,
        "span": span,
        "parent": parent,
        "name": name,
        "ts": 0.0,
        "dur_ms": dur_ms,
    }


class TestSummarize:
    def test_per_stage_statistics(self):
        spans = [
            _span("request", span="a", dur_ms=10.0),
            _span("request", trace="t2", span="b", dur_ms=30.0),
            _span("validate", span="c", parent="a", dur_ms=1.0),
        ]
        summary = summarize_spans(spans)
        assert summary["traces"] == 2
        assert summary["spans"] == 3
        assert summary["orphans"] == 0
        request = summary["stages"]["request"]
        assert request["count"] == 2
        assert request["mean_ms"] == pytest.approx(20.0)
        assert request["max_ms"] == pytest.approx(30.0)
        assert request["total_ms"] == pytest.approx(40.0)

    def test_orphans_counted(self):
        spans = [
            _span("request", span="a"),
            _span("batch_execute", span="b", parent="never-written"),
        ]
        assert summarize_spans(spans)["orphans"] == 1

    def test_empty_input(self):
        summary = summarize_spans([])
        assert summary == {"traces": 0, "spans": 0, "orphans": 0, "stages": {}}

    def test_round_trip_through_a_real_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        for _ in range(3):
            with tracer.start_span("request"):
                with tracer.start_span("validate"):
                    pass
        tracer.close()
        summary = summarize_trace_file(path)
        assert summary["traces"] == 3
        assert summary["orphans"] == 0
        assert summary["stages"]["validate"]["count"] == 3


class TestFormat:
    def test_stage_ordering_is_canonical(self):
        spans = [
            _span("respond", span="a"),
            _span("zz_custom", span="b"),
            _span("request", span="c"),
        ]
        text = format_trace_summary(summarize_spans(spans))
        lines = text.splitlines()
        order = [
            name
            for name in ("request", "respond", "zz_custom")
            if any(line.startswith(name) for line in lines)
        ]
        positions = {
            name: next(i for i, line in enumerate(lines) if line.startswith(name))
            for name in order
        }
        # request (a STAGE_ORDER member) before respond, unknown stages last.
        assert positions["request"] < positions["respond"] < positions["zz_custom"]

    def test_orphans_flagged_in_caption(self):
        spans = [_span("request", span="a", parent="missing")]
        text = format_trace_summary(summarize_spans(spans))
        assert "orphan" in text

    def test_stage_order_covers_the_serving_pipeline(self):
        for stage in ("validate", "queue_wait", "batch_execute"):
            assert stage in STAGE_ORDER
