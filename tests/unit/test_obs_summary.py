"""Unit tests for repro.obs.summary (the trace-summary analysis)."""

import pytest

from repro.obs.summary import (
    STAGE_ORDER,
    format_exemplars,
    format_trace_summary,
    slowest_exemplars,
    summarize_spans,
    summarize_trace_file,
)
from repro.obs.trace import JsonlSink, Tracer, parse_trace_file


def _span(name, trace="t1", span="s1", parent=None, dur_ms=1.0, attrs=None):
    record = {
        "v": 1,
        "trace": trace,
        "span": span,
        "parent": parent,
        "name": name,
        "ts": 0.0,
        "dur_ms": dur_ms,
    }
    if attrs is not None:
        record["attrs"] = attrs
    return record


def _requests(*durations):
    """One ``request`` span per duration (trace ``t<i>``, model ``har``),
    each with a slower child ``validate`` span that must not rank."""
    spans = []
    for index, dur_ms in enumerate(durations, start=1):
        spans.append(
            _span("request", trace=f"t{index}", span=f"r{index}", dur_ms=dur_ms,
                  attrs={"route": "/v1/predict", "model": "har"})
        )
        spans.append(
            _span("validate", trace=f"t{index}", span=f"v{index}",
                  parent=f"r{index}", dur_ms=100.0 + index)
        )
    return spans


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


class TestSlowestExemplars:
    def test_slowest_requests_first_truncated_to_k(self):
        rows = slowest_exemplars(_requests(5.0, 20.0, 1.0, 12.0), k=2)
        assert rows == [
            {"trace_id": "t2", "dur_ms": 20.0, "model": "har"},
            {"trace_id": "t4", "dur_ms": 12.0, "model": "har"},
        ]

    def test_k_beyond_the_file_returns_every_request(self):
        rows = slowest_exemplars(_requests(5.0, 20.0, 1.0), k=10)
        assert [row["trace_id"] for row in rows] == ["t2", "t1", "t3"]

    def test_stage_selects_the_spans_that_rank(self):
        rows = slowest_exemplars(_requests(5.0, 20.0), k=1, stage="validate")
        # validate spans carry no model attribute.
        assert rows == [{"trace_id": "t2", "dur_ms": 102.0, "model": None}]

    def test_no_span_of_the_stage_is_no_row(self):
        assert slowest_exemplars(_requests(5.0), stage="batch_execute") == []
        assert slowest_exemplars([]) == []

    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            slowest_exemplars(_requests(5.0), k=k)

    def test_table_lists_rows_in_order_with_a_dash_for_no_model(self):
        rows = slowest_exemplars(_requests(5.0, 20.0), k=2) + [
            {"trace_id": "t9", "dur_ms": 0.5, "model": None}
        ]
        lines = format_exemplars(rows).splitlines()
        assert lines[0] == "Slowest 'request' spans (trace exemplars)"
        body = [line.split(" | ") for line in lines[3:]]
        assert [[cell.strip() for cell in row] for row in body] == [
            ["t2", "har", "20.000"],
            ["t1", "har", "5.000"],
            ["t9", "-", "0.500"],
        ]

    def test_exemplars_of_a_real_trace_file_name_its_request_traces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        trace_ids = []
        for _ in range(3):
            with tracer.start_span("request", attrs={"model": "har"}) as root:
                trace_ids.append(root.trace_id)
                with tracer.start_span("validate"):
                    pass
        tracer.close()
        rows = slowest_exemplars(parse_trace_file(path), k=3)
        assert sorted(row["trace_id"] for row in rows) == sorted(trace_ids)
        assert [row["dur_ms"] for row in rows] == sorted(
            (row["dur_ms"] for row in rows), reverse=True
        )
        assert {row["model"] for row in rows} == {"har"}
