"""Integration: SLO verdicts, the access log, and ``repro top``.

Per-tenant SLO verdicts on real traffic, ``tenant=``/``trace_id=`` in the
access log, and the ``repro top`` console driven by a live server.
"""

from __future__ import annotations

import io
import json
import logging
import threading
import urllib.request

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.obs import MemorySink, SLOConfig, Tracer, run_console
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
        app = ServeApp(registry, slo_config=config)
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
        # The latency objective is the model histogram at the tenant's p95.
        model_latency = snapshot["models"]["baseline"]["latency"]
        assert model_latency["count"] == 10
        assert tenant["latency"] == {
            "objective_ms": model_latency["p95_ms"],
            "objective_met": True,
        }
        assert model_latency["p95_ms"] > 0.0
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
        app = ServeApp(registry, slo_config=SLOConfig())
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

            # The human-facing render against the same live endpoint.
            plain = io.StringIO()
            assert run_console(f"http://127.0.0.1:{port}", once=True, stream=plain) == 0
            assert "TENANT" in plain.getvalue()
            assert "baseline" in plain.getvalue()
        finally:
            server.shutdown()
            server.server_close()
            app.close()
