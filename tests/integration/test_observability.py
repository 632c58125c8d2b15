"""Integration: tracing, Prometheus exposition, and the access log end to end.

The tentpole acceptance check lives here: one request into a two-worker
``ServeApp`` must produce a *single* stitched trace — queue wait, per-worker
scoring spans from the worker processes, and the merge — all sharing the
root's trace id, with every parent pointer resolving inside the file.
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
    validate_exposition,
)
from repro.serve import ModelRegistry, ServeApp, create_server


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


class TestClusterTracePropagation:
    def test_two_worker_request_yields_one_stitched_trace(
        self, saved_model, small_problem
    ):
        import os

        app, sink = _traced_app(saved_model, num_processes=2, cache_size=0)
        try:
            # A single-sample request rides the micro-batch scheduler (the
            # production hot path: queue wait, coalesced batch, dispatch).
            row = small_problem["test_features"][0]
            single = app.predict({"features": row.tolist()})
            # A client batch takes the direct path and shards across both
            # workers, so its trace carries two worker-side scoring spans.
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
        names = {span["name"] for span in by_trace[single["trace_id"]]}
        for expected in (
            "request",
            "validate",
            "queue_wait",
            "batch_execute",
            "dispatch",
            "worker:score",
            "merge",
            "respond",
        ):
            assert expected in names, f"missing {expected!r} in {sorted(names)}"
        roots = [s for s in by_trace[single["trace_id"]] if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "request"

        # The batched trace's scoring spans really came from the two worker
        # processes: one per shard, each from a pid that is not ours.
        worker_spans = [
            span
            for span in by_trace[batched["trace_id"]]
            if span["name"] == "worker:score"
        ]
        assert len(worker_spans) == 2
        assert all(span["pid"] != os.getpid() for span in worker_spans)
        assert {span["attrs"]["worker"] for span in worker_spans} == {0, 1}

    def test_worker_crash_keeps_the_trace_well_formed(
        self, saved_model, small_problem
    ):
        app, sink = _traced_app(saved_model, num_processes=2, cache_size=0)
        try:
            queries = small_problem["test_features"][:8]
            # Dispatchers are created lazily on first use.
            app.predict({"features": queries.tolist()})
            dispatcher = next(
                d for _, d in app._dispatchers.values() if d is not None
            )
            dispatcher.poison_worker(0)
            # The crash is masked by the retry-once path, but the trace must
            # still be a tree — and the dispatch span must carry the
            # evidence that a shard was retried.
            masked = app.predict({"features": queries.tolist()})
            assert "trace_id" in masked
            spans = list(sink.records)
            span_ids = {span["span"] for span in spans}
            for span in spans:
                if span["parent"] is not None:
                    assert span["parent"] in span_ids
            retried = [
                span
                for span in spans
                if span["attrs"].get("retried_shards") is not None
            ]
            assert retried, "no span recorded the shard retry"

            # Recovery: the respawned pool produces a complete trace again.
            recovered = app.predict({"features": queries.tolist()})
            assert "trace_id" in recovered
            recovery = [
                span for span in sink.records
                if span["trace"] == recovered["trace_id"]
            ]
            assert {"worker:score", "merge"} <= {s["name"] for s in recovery}
        finally:
            app.close()

    def test_unsampled_requests_record_nothing(self, saved_model, small_problem):
        sink = MemorySink()
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(
            registry,
            tracer=Tracer(sink, sample_rate=0.0),
            num_processes=2,
            cache_size=0,
        )
        try:
            queries = small_problem["test_features"][:4]
            response = app.predict({"features": queries.tolist()})
            assert "trace_id" not in response
            assert sink.records == []
        finally:
            app.close()


class TestPrometheusEndpoint:
    def test_cluster_snapshot_renders_valid_exposition(
        self, saved_model, small_problem
    ):
        app, _ = _traced_app(saved_model, num_processes=2, cache_size=0)
        try:
            queries = small_problem["test_features"][:8]
            app.predict({"features": queries.tolist()})
            text = render_prometheus(app.metrics_snapshot())
        finally:
            app.close()
        validate_exposition(text)
        assert "repro_requests_total" in text
        assert 'repro_worker_requests_total{dispatcher="baseline@v1",worker="0"}' in text
        assert "repro_worker_utilization" in text
        assert "repro_stage_latency_seconds_bucket" in text

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
