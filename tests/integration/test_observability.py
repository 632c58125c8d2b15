"""Integration: tracing, Prometheus exposition, and the access log end to end.

The acceptance check lives here: one request into a ``ServeApp`` must
produce a *single* stitched trace — validation, the engine call and the
response, all on the caller's thread — sharing the root's trace id, with
every parent pointer resolving inside the file.
"""

from __future__ import annotations

import logging
import threading
import urllib.request

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.obs import (
    CONTENT_TYPE,
    MemorySink,
    Tracer,
    render_prometheus,
    summarize_spans,
    validate_exposition,
)
from repro.serve import ModelRegistry, ServeApp, create_server
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas


@pytest.fixture(scope="module")
def saved_model(small_problem, tmp_path_factory):
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return save_model(
        tmp_path_factory.mktemp("obs") / "baseline.npz",
        pipeline,
        strategy_name="baseline",
    )


def _traced_app(saved_model, **kwargs):
    sink = MemorySink()
    registry = ModelRegistry()
    registry.register("baseline", saved_model)
    app = ServeApp(registry, tracer=Tracer(sink), **kwargs)
    return app, sink


class TestTracePropagation:
    def test_request_yields_one_stitched_trace(self, saved_model, small_problem):
        app, sink = _traced_app(saved_model)
        # A single-sample request and a client batch take the same path: one
        # engine call on the caller's thread.
        row = small_problem["test_features"][0]
        single = app.predict({"features": row.tolist()})
        queries = small_problem["test_features"][:8]
        batched = app.predict({"features": queries.tolist()})
        assert "trace_id" in single and "trace_id" in batched

        spans = sink.records
        span_ids = {span["span"] for span in spans}
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace"], []).append(span)
            # Every parent pointer in the file resolves: nothing dangles.
            if span["parent"] is not None:
                assert span["parent"] in span_ids
        assert set(by_trace) == {single["trace_id"], batched["trace_id"]}

        # Each trace is the full pipeline in one tree: the request root and
        # one child per stage.
        for answer in (single, batched):
            trace_spans = by_trace[answer["trace_id"]]
            roots = [s for s in trace_spans if s["parent"] is None]
            assert len(roots) == 1 and roots[0]["name"] == "request"
            children = sorted(s["name"] for s in trace_spans if s["parent"] is not None)
            assert children == ["batch_execute", "respond", "validate"]
            assert all(
                s["parent"] == roots[0]["span"] for s in trace_spans if s is not roots[0]
            )

    def test_unsampled_requests_record_nothing(self, saved_model, small_problem):
        sink = MemorySink()
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry, tracer=Tracer(sink, sample_rate=0.0))
        row = small_problem["test_features"][0]
        single = app.predict({"features": row.tolist()})
        queries = small_problem["test_features"][:4]
        batched = app.predict({"features": queries.tolist()})
        assert "trace_id" not in single and "trace_id" not in batched
        assert sink.records == []


    @pytest.mark.parametrize(
        "case, app_kwargs, payload_extra, status, code",
        [
            ("bad_request", {}, {"top_k": 0}, 400, "bad_request"),
            ("unknown_model", {}, {"model": "ghost"}, 404, "not_found"),
            (
                "shed",
                # A bucket that never holds a whole token sheds every request.
                {"tenant_quotas": TenantQuotas(rps=1.0, burst=0.5)},
                {},
                429,
                "tenant_rate_limited",
            ),
            ("deadline", {}, {"deadline_ms": 1e-6}, 504, "deadline_exceeded"),
        ],
    )
    def test_failed_request_keeps_the_trace_well_formed(
        self, saved_model, small_problem, case, app_kwargs, payload_extra, status, code
    ):
        app, sink = _traced_app(saved_model, **app_kwargs)
        payload = {"features": small_problem["test_features"][0].tolist()}
        with pytest.raises(RequestError) as info:
            app.predict({**payload, **payload_extra})
        assert (info.value.status, info.value.code) == (status, code)
        spans = sink.records
        # The failure is one trace — the one the error reports — and every
        # span in it resolves its parent.
        assert {span["trace"] for span in spans} == {info.value.trace_id}
        assert summarize_spans(spans)["orphans"] == 0
        roots = [span for span in spans if span["parent"] is None]
        assert len(roots) == 1
        assert roots[0]["name"] == "request"
        assert roots[0]["attrs"]["error"] == "RequestError"
        assert "respond" not in {span["name"] for span in spans}

    @pytest.mark.parametrize("case", ["wrong-width", "engine-crash"])
    def test_a_failure_in_the_engine_is_marked_on_its_span(
        self, saved_model, small_problem, case
    ):
        app, sink = _traced_app(saved_model)
        row = small_problem["test_features"][0].tolist()
        if case == "wrong-width":
            with pytest.raises(RequestError) as info:
                app.predict({"features": [row[:-1], row[:-1]]})
            assert info.value.status == 400
            engine_error, request_error = "ValueError", "RequestError"
        else:

            class _Crashing:
                def top_k(self, features, k):
                    raise RuntimeError("engine crashed")

            resolve = app.engine_for
            app.engine_for = lambda name: _Crashing()
            with pytest.raises(RuntimeError):
                app.predict({"features": [row, row]})
            app.engine_for = resolve
            engine_error = request_error = "RuntimeError"
        by_name = {span["name"]: span for span in sink.records}
        assert sorted(by_name) == ["batch_execute", "request", "validate"]
        assert by_name["batch_execute"]["attrs"]["error"] == engine_error
        assert by_name["request"]["attrs"]["error"] == request_error
        assert "error" not in by_name["validate"]["attrs"]
        # The failed request left nothing on this thread's span stack: the
        # next request is a trace of its own.
        answer = app.predict({"features": row})
        later = [span for span in sink.records if span["trace"] == answer["trace_id"]]
        assert len(later) == 4
        assert [span["name"] for span in later if span["parent"] is None] == ["request"]

    def test_concurrent_requests_each_get_their_own_trace(
        self, saved_model, small_problem
    ):
        app, sink = _traced_app(saved_model)
        queries = small_problem["test_features"][:8]
        answers = [None] * len(queries)

        def call(index):
            features = queries[index].tolist() if index % 2 else queries[: index + 1].tolist()
            answers[index] = app.predict({"features": features})

        threads = [threading.Thread(target=call, args=(i,)) for i in range(len(queries))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        by_trace = {}
        for span in sink.records:
            by_trace.setdefault(span["trace"], []).append(span)
        assert set(by_trace) == {answer["trace_id"] for answer in answers}
        for index, answer in enumerate(answers):
            spans = by_trace[answer["trace_id"]]
            (root,) = [span for span in spans if span["parent"] is None]
            assert root["attrs"]["rows"] == (1 if index % 2 else index + 1)
            children = sorted(span["name"] for span in spans if span is not root)
            assert children == ["batch_execute", "respond", "validate"]
            assert all(span["parent"] == root["span"] for span in spans if span is not root)


class TestPrometheusEndpoint:
    def test_snapshot_renders_valid_exposition(self, saved_model, small_problem):
        app, _ = _traced_app(saved_model)
        app.predict({"features": small_problem["test_features"][0].tolist()})
        queries = small_problem["test_features"][:8]
        app.predict({"features": queries.tolist()})
        text = render_prometheus(app.metrics_snapshot())
        validate_exposition(text)
        assert 'repro_requests_total{model="baseline"} 2' in text
        assert 'repro_samples_total{model="baseline"} 9' in text
        assert 'repro_stage_latency_seconds_count{model="baseline",stage="batch_execute"} 2' in text
        # Traced requests leave exemplars on the latency buckets.
        assert '# {trace_id="' in text

    def test_tenant_and_error_series_render_from_a_live_app(
        self, saved_model, small_problem
    ):
        registry = ModelRegistry()
        for name in ("a", "b"):
            registry.register(name, saved_model)
        app = ServeApp(registry, tenant_quotas=TenantQuotas(rps=1.0, burst=1.0))
        row = small_problem["test_features"][0].tolist()
        app.predict({"features": row, "model": "a"})
        with pytest.raises(RequestError):
            app.predict({"features": row, "model": "a"})
        app.predict({"features": row, "model": "b"})
        text = render_prometheus(app.metrics_snapshot())
        validate_exposition(text)
        lines = set(text.splitlines())
        assert 'repro_errors_total{model="a"} 1' in lines
        assert 'repro_tenant_rate_limited_total{tenant="a"} 1' in lines
        assert 'repro_tenant_rate_limited_total{tenant="b"} 0' in lines
        assert 'repro_errors_total{model="b"} 0' in lines
        assert not any(line.startswith("repro_slo_") for line in lines)

    def test_http_metrics_route(self, saved_model, small_problem):
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry)
        server = create_server(app, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=10
            ) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                text = response.read().decode("utf-8")
            validate_exposition(text)
        finally:
            server.shutdown()
            server.server_close()


class TestRequestCounting:
    def test_concurrent_single_row_clients_are_each_counted_once(
        self, saved_model, small_problem
    ):
        """Rows from concurrent callers count one request each, in the
        snapshot and in Prometheus, and each stitches into one whole trace."""
        app, sink = _traced_app(saved_model)
        rows = small_problem["test_features"]
        clients, per_client = 8, 25
        answers = [[] for _ in range(clients)]

        def client(index):
            for step in range(per_client):
                row = rows[(index * per_client + step) % len(rows)]
                answers[index].append(app.predict({"features": row.tolist()}))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        snapshot = app.metrics_snapshot()
        answered = [answer for client_answers in answers for answer in client_answers]
        total = clients * per_client
        assert len(answered) == total
        model = snapshot["models"]["baseline"]
        assert model["requests"] == total
        assert model["latency"]["count"] == total
        assert model["samples"] == total
        lines = set(render_prometheus(snapshot).splitlines())
        assert f'repro_requests_total{{model="baseline"}} {total}' in lines
        assert f'repro_request_latency_seconds_count{{model="baseline"}} {total}' in lines
        # Each exemplar is the trace of a request that landed in its bucket.
        trace_ids = {answer["trace_id"] for answer in answered}
        exemplars = [b["exemplar"] for b in model["latency"]["buckets"] if "exemplar" in b]
        assert exemplars and {e["trace_id"] for e in exemplars} <= trace_ids
        # Every request's tree holds its own engine call.
        summary = summarize_spans(sink.records)
        assert summary["traces"] == total
        assert set(summary["stages"]) == {"request", "validate", "batch_execute", "respond"}
        assert summary["stages"]["batch_execute"]["count"] == total
        assert summary["orphans"] == 0


class TestAccessLog:
    def test_structured_line_per_request(self, saved_model, caplog):
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry)
        server = create_server(app, port=0, log_level="info")
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with caplog.at_level(logging.INFO, logger="repro.serve.access"):
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/v1/healthz", timeout=10
                ) as response:
                    assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
        lines = [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.serve.access"
        ]
        assert any(
            "method=GET" in line
            and "path=/v1/healthz" in line
            and "status=200" in line
            and "dur_ms=" in line
            for line in lines
        )

    def test_rejects_unknown_level(self, saved_model):
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry)
        with pytest.raises(ValueError, match="log level"):
            create_server(app, port=0, log_level="loud")
