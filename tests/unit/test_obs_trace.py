"""Unit tests for repro.obs.trace: spans, sampling, sinks, stitching."""

import json
import threading

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    JsonlSink,
    MemorySink,
    Tracer,
    parse_trace_file,
)


class TestSpanLifecycle:
    def test_root_span_emits_on_exit(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.start_span("request", attrs={"route": "/v1/predict"}) as span:
            span.set("rows", 4)
        (record,) = sink.records
        assert record["name"] == "request"
        assert record["parent"] is None
        assert record["attrs"] == {"route": "/v1/predict", "rows": 4}
        assert record["dur_ms"] >= 0.0
        assert len(record["trace"]) == 16 and len(record["span"]) == 16

    def test_nested_spans_share_trace_and_parent(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.start_span("request") as root:
            with tracer.start_span("validate"):
                pass
        child, parent = sink.records
        assert child["name"] == "validate"
        assert child["trace"] == parent["trace"] == root.trace_id
        assert child["parent"] == parent["span"]

    def test_a_span_on_another_thread_starts_its_own_trace(self):
        # Spans nest per thread: every stage of a request runs on the thread
        # that handles it, so a span on another thread is a root of its own.
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.start_span("request") as root:

            def worker():
                with tracer.start_span("elsewhere"):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        other = next(r for r in sink.records if r["name"] == "elsewhere")
        assert other["parent"] is None
        assert other["trace"] != root.trace_id

    def test_exception_is_recorded_and_propagates(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.start_span("request"):
                raise RuntimeError("boom")
        (record,) = sink.records
        assert record["attrs"]["error"] == "RuntimeError"

    def test_ambient_stack_pops_after_exit(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.start_span("request"):
            pass
        with tracer.start_span("next"):
            pass
        # Once the first root exits, the next span nests under nothing.
        first, second = sink.records
        assert second["parent"] is None
        assert second["trace"] != first["trace"]


class TestSampling:
    def test_disabled_tracer_returns_the_shared_null_span(self):
        tracer = Tracer()  # no sink
        span = tracer.start_span("request")
        assert span is NULL_SPAN
        # The null span is inert: context-manages, ignores attributes.
        with span as inner:
            inner.set("anything", 1)
        assert span.trace_id is None and span.sampled is False

    def test_sample_rate_zero_records_nothing(self):
        sink = MemorySink()
        tracer = Tracer(sink, sample_rate=0.0)
        for _ in range(20):
            with tracer.start_span("request"):
                pass
        assert sink.records == []

    def test_sampling_is_decided_at_the_root_only(self):
        sink = MemorySink()
        tracer = Tracer(sink, sample_rate=0.5, seed=7)
        for _ in range(50):
            with tracer.start_span("request") as root:
                # Children exist iff their root was sampled.
                with tracer.start_span("validate") as child:
                    assert child.sampled == root.sampled
        roots = [r for r in sink.records if r["parent"] is None]
        children = [r for r in sink.records if r["parent"] is not None]
        assert 0 < len(roots) < 50
        assert len(children) == len(roots)

    def test_rejects_out_of_range_sample_rate(self):
        with pytest.raises(ValueError):
            Tracer(MemorySink(), sample_rate=1.5)


class TestJsonlSinkAndParsing:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        with tracer.start_span("request"):
            with tracer.start_span("respond"):
                pass
        tracer.close()
        spans = parse_trace_file(path)
        assert {span["name"] for span in spans} == {"request", "respond"}
        assert all(span["v"] == 1 for span in spans)

    def test_write_after_close_is_safe(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.close()
        sink.write({"v": 1})  # must not raise

    def test_parse_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid JSON"):
            parse_trace_file(path)

    def test_parse_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        path.write_text(json.dumps({"trace": "t", "span": "s"}) + "\n")
        with pytest.raises(ValueError, match="missing"):
            parse_trace_file(path)


class TestMemorySinkRetention:
    def test_keeps_only_the_most_recent_records(self):
        sink = MemorySink(max_records=3)
        for index in range(5):
            sink.write({"name": f"span-{index}"})
        assert [r["name"] for r in sink.records] == ["span-2", "span-3", "span-4"]
        assert sink.dropped == 2

    def test_default_cap_is_bounded(self):
        assert MemorySink().max_records == MemorySink.DEFAULT_MAX_RECORDS

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError, match="max_records"):
            MemorySink(max_records=0)
