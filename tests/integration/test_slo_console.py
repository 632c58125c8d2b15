"""Integration: SLO verdicts, merged fleet percentiles, and ``repro top``.

The tentpole acceptance check lives here: on a two-worker cluster run, the
merged-sketch fleet scoring percentiles published in ``/v1/metrics`` must
agree with *exact* percentiles computed over the pooled per-shard scoring
durations — recoverable bit-for-bit from the ``worker:score`` trace spans,
because the worker records the same ``elapsed`` into both the stats slab
and the span.  Alongside it: per-tenant SLO verdicts on real traffic,
``tenant=``/``trace_id=`` in the access log, and the ``repro top`` console
driven by a live server.
"""

from __future__ import annotations

import io
import json
import logging
import math
import threading
import urllib.request

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.obs import MemorySink, SLOConfig, Tracer, run_console
from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY
from repro.serve import ModelRegistry, ServeApp, create_server


@pytest.fixture(scope="module")
def saved_model(small_problem, tmp_path_factory):
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return save_model(
        tmp_path_factory.mktemp("slo") / "baseline.npz",
        pipeline,
        strategy_name="baseline",
    )


def _exact_percentile(samples, p):
    """Nearest-rank percentile, matching ``QuantileSketch.percentile``."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class TestFleetPercentileAccuracy:
    def test_merged_percentiles_match_pooled_exact_on_two_workers(
        self, saved_model, small_problem
    ):
        """Acceptance: fleet p50/p95/p99 vs pooled exact, two workers."""
        sink = MemorySink()
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(
            registry,
            tracer=Tracer(sink, sample_rate=1.0),
            num_processes=2,
            cache_size=0,
        )
        try:
            # Client batches shard across both workers: every request feeds
            # two per-shard samples into two different worker slabs.
            queries = small_problem["test_features"][:8].tolist()
            for _ in range(40):
                app.predict({"features": queries})
            snapshot = app.metrics_snapshot()
        finally:
            app.close()

        fleet = snapshot["cluster"]["baseline@v1"]["workers"]["fleet"]
        pooled_ms = [
            span["dur_ms"] for span in sink.records if span["name"] == "worker:score"
        ]
        # The worker records the identical elapsed into the slab sketch and
        # the worker:score span, so the trace gives us the exact pooled
        # sample stream the merged sketch summarised.
        assert len(pooled_ms) == fleet["requests"]
        assert len(pooled_ms) >= 80
        for p, key in ((50, "scoring_p50_ms"), (95, "scoring_p95_ms"), (99, "scoring_p99_ms")):
            exact = _exact_percentile(pooled_ms, p)
            merged = fleet[key]
            assert merged == pytest.approx(
                exact, rel=DEFAULT_RELATIVE_ACCURACY, abs=1e-6
            ), f"fleet {key}={merged} vs pooled exact p{p}={exact}"

        # The per-worker breakdown brackets the merged view: the pooled p99
        # can never exceed the worst worker's p99 (the classic bug this
        # design removes was averaging the per-worker values instead).
        per_worker = snapshot["cluster"]["baseline@v1"]["workers"]["per_worker"]
        assert len(per_worker) == 2
        worst = max(w["scoring_p99_ms"] for w in per_worker)
        assert fleet["scoring_p99_ms"] <= worst * (1.0 + 2 * DEFAULT_RELATIVE_ACCURACY)


class TestServeSLO:
    def test_verdicts_on_real_traffic_and_client_fault_exemption(
        self, saved_model, small_problem
    ):
        config = SLOConfig.from_dict(
            {
                "default": {"availability": 0.99, "latency_ms": 60_000.0},
                "tenants": {"baseline": {"latency_percentile": 95.0}},
            }
        )
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry, cache_size=0, slo_config=config)
        try:
            row = small_problem["test_features"][0].tolist()
            for _ in range(10):
                app.predict({"features": row})
            # Client faults (bad payload, unknown model) are exempt: they
            # must not spend the tenant's error budget.
            from repro.serve.server import RequestError

            with pytest.raises(RequestError):
                app.predict({"features": row, "model": "nope"})
            with pytest.raises(RequestError):
                app.predict({})
            snapshot = app.metrics_snapshot()
        finally:
            app.close()

        slo = snapshot["slo"]
        tenant = slo["tenants"]["baseline"]
        assert tenant["requests"] == 10
        assert tenant["bad_requests"] == 0
        assert tenant["verdict"] == "ok"
        assert tenant["budget_remaining"] == pytest.approx(1.0)
        assert tenant["spec"]["latency_percentile"] == 95.0
        assert tenant["latency"]["count"] == 10
        assert 0.0 < tenant["latency"]["p50_ms"] <= tenant["latency"]["p99_ms"]
        assert set(slo["tenants"]) == {"baseline"}

    def test_failures_spend_budget_and_flip_the_verdict(self, saved_model):
        config = SLOConfig.from_dict({"default": {"availability": 0.999}})
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry, slo_config=config)
        try:
            # Overload rejections (429) are server-attributed: drive them
            # straight through the engine's SLO hook.
            for _ in range(50):
                app.slo.record("baseline", ok=False, latency_s=0.001)
            snapshot = app.metrics_snapshot()
        finally:
            app.close()
        tenant = snapshot["slo"]["tenants"]["baseline"]
        assert tenant["bad_requests"] == 50
        assert tenant["budget_remaining"] == 0.0
        assert tenant["verdict"] == "breached"


class TestAccessLogTenantTrace:
    def _serve(self, saved_model):
        sink = MemorySink()
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(registry, tracer=Tracer(sink, sample_rate=1.0))
        server = create_server(app, port=0, log_level="info")
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return app, server, port

    def test_success_line_carries_tenant_and_trace_id(
        self, saved_model, small_problem, caplog
    ):
        app, server, port = self._serve(saved_model)
        try:
            body = json.dumps(
                {"features": small_problem["test_features"][0].tolist()}
            ).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with caplog.at_level(logging.INFO, logger="repro.serve.access"):
                with urllib.request.urlopen(request, timeout=10) as response:
                    payload = json.loads(response.read())
        finally:
            server.shutdown()
            server.server_close()
            app.close()
        lines = [
            r.getMessage() for r in caplog.records if r.name == "repro.serve.access"
        ]
        assert any(
            "status=200" in line
            and "tenant=baseline" in line
            and f"trace_id={payload['trace_id']}" in line
            for line in lines
        ), lines

    def test_error_line_carries_tenant(self, saved_model, small_problem, caplog):
        app, server, port = self._serve(saved_model)
        try:
            body = json.dumps(
                {
                    "features": small_problem["test_features"][0].tolist(),
                    "model": "missing",
                }
            ).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with caplog.at_level(logging.INFO, logger="repro.serve.access"):
                with pytest.raises(urllib.error.HTTPError):
                    urllib.request.urlopen(request, timeout=10)
        finally:
            server.shutdown()
            server.server_close()
            app.close()
        lines = [
            r.getMessage() for r in caplog.records if r.name == "repro.serve.access"
        ]
        assert any(
            "status=404" in line and "tenant=missing" in line for line in lines
        ), lines


class TestConsoleAgainstLiveServer:
    def test_top_once_json_renders_the_live_fleet(self, saved_model, small_problem):
        registry = ModelRegistry()
        registry.register("baseline", saved_model)
        app = ServeApp(
            registry,
            num_processes=2,
            cache_size=0,
            slo_config=SLOConfig(),
        )
        server = create_server(app, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            queries = small_problem["test_features"][:8].tolist()
            body = json.dumps({"features": queries}).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/predict",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200

            stream = io.StringIO()
            code = run_console(
                f"http://127.0.0.1:{port}", once=True, as_json=True, stream=stream
            )
            assert code == 0
            view = json.loads(stream.getvalue())
            tenants = {t["tenant"]: t for t in view["tenants"]}
            assert tenants["baseline"]["requests"] >= 1
            assert tenants["baseline"]["verdict"] == "ok"
            assert any(w["workers"] == 2 for w in view["workers"])

            # The human-facing render against the same live endpoint.
            plain = io.StringIO()
            assert run_console(f"http://127.0.0.1:{port}", once=True, stream=plain) == 0
            assert "TENANT" in plain.getvalue()
            assert "baseline" in plain.getvalue()
        finally:
            server.shutdown()
            server.server_close()
            app.close()
