"""Integration: the access log of a live server — one line per request, and
``tenant=``/``trace_id=`` on predicts."""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.request

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.obs import MemorySink, Tracer
from repro.serve import ModelRegistry, ServeApp, create_server


@pytest.fixture(scope="module")
def saved_model(small_problem, tmp_path_factory):
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return save_model(
        tmp_path_factory.mktemp("access-log") / "baseline.npz",
        pipeline,
        strategy_name="baseline",
    )


def _serve(saved_model):
    sink = MemorySink()
    registry = ModelRegistry()
    registry.register("baseline", saved_model)
    app = ServeApp(registry, tracer=Tracer(sink, sample_rate=1.0))
    server = create_server(app, port=0, log_level="info")
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return app, server, port


def _access_lines(caplog, at_least=0):
    """The access log lines, after waiting up to 5 s for *at_least* of them:
    a handler thread logs after its answer is sent."""
    deadline = time.monotonic() + 5.0
    while True:
        lines = [r.getMessage() for r in caplog.records if r.name == "repro.serve.access"]
        if len(lines) >= at_least or time.monotonic() > deadline:
            return lines
        time.sleep(0.01)


class TestAccessLogTenantTrace:
    def test_success_line_carries_tenant_and_trace_id(
        self, saved_model, small_problem, caplog
    ):
        app, server, port = _serve(saved_model)
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
        lines = _access_lines(caplog, at_least=1)
        assert any(
            "status=200" in line
            and "tenant=baseline" in line
            and f"trace_id={payload['trace_id']}" in line
            for line in lines
        ), lines

    def test_error_line_carries_tenant(self, saved_model, small_problem, caplog):
        app, server, port = _serve(saved_model)
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
        lines = _access_lines(caplog, at_least=1)
        assert any(
            "status=404" in line and "tenant=missing" in line for line in lines
        ), lines


class TestAccessLogRoutes:
    @pytest.mark.parametrize(
        "method, route, status, code",
        [
            ("GET", "/v1/healthz", 200, None),
            ("GET", "/metrics", 200, None),
            ("GET", "/v1/metrics", 404, None),
            ("POST", "/v1/metrics", 404, "not_found"),
        ],
        ids=["healthz", "metrics", "get-retired-json-metrics", "post-retired-json-metrics"],
    )
    def test_one_line_per_request_with_its_route_and_status(
        self, saved_model, caplog, method, route, status, code
    ):
        app, server, port = _serve(saved_model)
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{route}",
                data=b"{}" if method == "POST" else None,
                method=method,
            )
            with caplog.at_level(logging.INFO, logger="repro.serve.access"):
                try:
                    with urllib.request.urlopen(request, timeout=10) as response:
                        answered = response.status
                except urllib.error.HTTPError as error:
                    answered = error.code
        finally:
            server.shutdown()
            server.server_close()
            app.close()
        assert answered == status
        (line,) = _access_lines(caplog, at_least=1)
        assert line.startswith(f"method={method} path={route} status={status} ")
        assert line.endswith(f" code={code}") == (code is not None)
