"""Integration: tracing, Prometheus exposition, and the access log end to end.

The acceptance check lives here: one request into a ``ServeApp`` must
produce a *single* stitched trace — the handler thread's spans plus the
queue wait and batch execution the scheduler records on whichever caller's
thread leads the batch — all sharing the root's trace id, with every parent
pointer resolving inside the file.
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
        try:
            # A single-sample request rides the micro-batch scheduler (the
            # production hot path: queue wait, then a coalesced batch run on
            # the thread of the caller that leads it).
            row = small_problem["test_features"][0]
            single = app.predict({"features": row.tolist()})
            # A client batch takes the direct path on the handler thread.
            queries = small_problem["test_features"][:8]
            batched = app.predict({"features": queries.tolist()})
            assert "trace_id" in single and "trace_id" in batched
        finally:
            app.close()

        spans = sink.records
        span_ids = {span["span"] for span in spans}
        by_trace = {}
        for span in spans:
            by_trace.setdefault(span["trace"], []).append(span)
            # Every parent pointer in the file resolves: nothing dangles.
            if span["parent"] is not None:
                assert span["parent"] in span_ids
        assert set(by_trace) == {single["trace_id"], batched["trace_id"]}

        # The scheduler-path trace shows the full pipeline in one tree.
        single_spans = by_trace[single["trace_id"]]
        names = {span["name"] for span in single_spans}
        for expected in ("request", "validate", "queue_wait", "batch_execute", "respond"):
            assert expected in names, f"missing {expected!r} in {sorted(names)}"
        roots = [s for s in single_spans if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "request"
        # The scheduler's spans hang off the request root, which they reach
        # only through the context handed over with the request.
        for span in single_spans:
            if span["name"] in ("queue_wait", "batch_execute"):
                assert span["parent"] == roots[0]["span"]

        # The client batch skipped the scheduler and ran on the handler.
        batched_names = {span["name"] for span in by_trace[batched["trace_id"]]}
        assert {"request", "validate", "respond"} <= batched_names
        assert not {"queue_wait", "batch_execute"} & batched_names

    def test_unsampled_requests_record_nothing(self, saved_model, small_problem):
        sink = MemorySink()
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry, tracer=Tracer(sink, sample_rate=0.0))
        try:
            row = small_problem["test_features"][0]
            single = app.predict({"features": row.tolist()})
            queries = small_problem["test_features"][:4]
            batched = app.predict({"features": queries.tolist()})
            assert "trace_id" not in single and "trace_id" not in batched
            assert sink.records == []
        finally:
            app.close()


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
        try:
            with pytest.raises(RequestError) as info:
                app.predict({**payload, **payload_extra})
        finally:
            app.close()
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


class TestPrometheusEndpoint:
    def test_snapshot_renders_valid_exposition(self, saved_model, small_problem):
        app, _ = _traced_app(saved_model)
        try:
            app.predict({"features": small_problem["test_features"][0].tolist()})
            queries = small_problem["test_features"][:8]
            app.predict({"features": queries.tolist()})
            text = render_prometheus(app.metrics_snapshot())
        finally:
            app.close()
        validate_exposition(text)
        assert 'repro_requests_total{model="baseline"}' in text
        assert 'repro_scheduler_queue_depth{model="baseline"}' in text
        assert 'stage="queue_wait"' in text
        assert 'stage="batch_execute"' in text
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
        try:
            app.predict({"features": row, "model": "a"})
            with pytest.raises(RequestError):
                app.predict({"features": row, "model": "a"})
            app.predict({"features": row, "model": "b"})
            text = render_prometheus(app.metrics_snapshot())
        finally:
            app.close()
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
            app.close()


class TestRequestCounting:
    def test_concurrent_single_row_clients_are_each_counted_once(
        self, saved_model, small_problem
    ):
        """Coalesced rows still count one request each, in the snapshot and
        in Prometheus, and each still stitches into one whole trace."""
        app, sink = _traced_app(saved_model)
        rows = small_problem["test_features"]
        clients, per_client = 8, 25
        answers = [[] for _ in range(clients)]

        def client(index):
            for step in range(per_client):
                row = rows[(index * per_client + step) % len(rows)]
                answers[index].append(app.predict({"features": row.tolist()}))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            snapshot = app.metrics_snapshot()
        finally:
            app.close()
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
        # The batches' queue_wait and batch_execute spans, written by
        # whichever caller led each batch, reach every request's tree.
        summary = summarize_spans(sink.records)
        assert summary["traces"] == total
        assert {"request", "queue_wait", "batch_execute"} <= set(summary["stages"])
        assert summary["stages"]["queue_wait"]["count"] == total
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
            app.close()
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
        try:
            with pytest.raises(ValueError, match="log level"):
                create_server(app, port=0, log_level="loud")
        finally:
            app.close()
