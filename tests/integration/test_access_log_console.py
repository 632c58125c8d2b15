"""Integration: the access log and ``repro top`` against a live server.

``tenant=``/``trace_id=`` in the access log, and the ``repro top`` console
driven by a live server.
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
from repro.obs import MemorySink, Tracer, run_console
from repro.serve import ModelRegistry, ServeApp, create_server


@pytest.fixture(scope="module")
def saved_model(small_problem, tmp_path_factory):
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return save_model(
        tmp_path_factory.mktemp("console") / "baseline.npz",
        pipeline,
        strategy_name="baseline",
    )


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
        app = ServeApp(registry)
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
            assert tenants["baseline"]["requests"] == 1
            assert tenants["baseline"]["errors"] == 0
            assert tenants["baseline"]["p50_ms"] > 0

            # The human-facing render against the same live endpoint.
            plain = io.StringIO()
            assert run_console(f"http://127.0.0.1:{port}", once=True, stream=plain) == 0
            assert "TENANT" in plain.getvalue()
            assert "baseline" in plain.getvalue()
        finally:
            server.shutdown()
            server.server_close()
            app.close()
