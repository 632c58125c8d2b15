"""Integration test: the HTTP serving front-end round-trips real requests.

Starts the stdlib server on an ephemeral port, registers a model trained and
saved through the normal pipeline/io path, and checks every route — in
particular that ``POST /v1/predict`` returns the same labels as the offline
``pipeline.predict`` for the same model.
"""

import http.client
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.obs import CONTENT_TYPE, validate_exposition
from repro.serve import ModelRegistry, ServeApp, create_server
from repro.serve.tenancy import TenantQuotas


@pytest.fixture(scope="module")
def served(small_problem, tmp_path_factory):
    """A running server (ephemeral port) fronting one saved model."""
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    path = save_model(
        tmp_path_factory.mktemp("serve") / "har.npz", pipeline, strategy_name="baseline"
    )

    registry = ModelRegistry()
    registry.register("har", path)
    app = ServeApp(registry, max_batch_size=16)
    server = create_server(app, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": port, "pipeline": pipeline}
    server.shutdown()
    server.server_close()
    app.close()


def _get(port, route):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{route}", timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(port, route, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{route}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestRoutes:
    def test_healthz(self, served):
        status, body = _get(served["port"], "/v1/healthz")
        assert status == 200
        assert body == {"status": "ok", "models": 1}

    def test_models_listing(self, served):
        status, body = _get(served["port"], "/v1/models")
        assert status == 200
        (row,) = body["models"]
        assert row["name"] == "har"
        assert row["strategy"] == "baseline"

    def test_unknown_route_404(self, served):
        # /v1/metrics was a JSON route; /metrics is the one metrics surface.
        for route in ("/v1/nonsense", "/v1/metrics"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(served["port"], route)
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["code"] == "not_found"

    @pytest.mark.parametrize("route", ["/metrics", "/v1/metrics", "/v1/healthz"])
    def test_post_to_a_route_other_than_predict_404(self, served, route):
        status, body = _post(served["port"], route, {"features": [0.0]})
        assert status == 404
        assert body["code"] == "not_found"


class TestPredict:
    def test_single_sample_matches_offline_pipeline(self, served, small_problem):
        row = small_problem["test_features"][0]
        status, body = _post(served["port"], "/v1/predict", {"features": row.tolist()})
        assert status == 200
        expected = int(served["pipeline"].predict(row)[0])
        assert body["labels"] == [expected]
        assert body["model"] == "har"
        assert body["latency_ms"] > 0

    def test_client_batch_matches_offline_pipeline(self, served, small_problem):
        batch = small_problem["test_features"][:10]
        status, body = _post(
            served["port"], "/v1/predict", {"model": "har", "features": batch.tolist()}
        )
        assert status == 200
        np.testing.assert_array_equal(
            body["labels"], served["pipeline"].predict(batch)
        )

    def test_top_k_payload(self, served, small_problem):
        row = small_problem["test_features"][0]
        status, body = _post(
            served["port"], "/v1/predict", {"features": row.tolist(), "top_k": 3}
        )
        assert status == 200
        assert len(body["top_k_labels"][0]) == 3
        assert len(body["top_k_scores"][0]) == 3
        assert body["top_k_labels"][0][0] == body["labels"][0]

    def test_a_huge_feature_value_scores_like_any_value_above_the_range(
        self, served, small_problem
    ):
        """1e300 and 1.7e308 quantise to the top level, as 1e6 does (1e300 once
        got level 0, and 1.7e308 overflowed the scale with a RuntimeWarning);
        -1.7e308 takes level 0, as -1e6 does."""
        for values in ((1e6, 1e300, 1.7e308), (-1e6, -1.7e308)):
            answers = []
            for value in values:
                row = small_problem["test_features"][0].copy()
                row[:8] = value
                status, body = _post(
                    served["port"], "/v1/predict", {"features": row.tolist(), "top_k": 4}
                )
                assert status == 200
                answers.append((body["top_k_labels"], body["top_k_scores"]))
            assert answers == [answers[0]] * len(values)

    def test_concurrent_requests_all_correct(self, served, small_problem):
        queries = small_problem["test_features"][:24]
        expected = served["pipeline"].predict(queries)

        def call(row):
            _, body = _post(served["port"], "/v1/predict", {"features": row.tolist()})
            return body["labels"][0]

        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(call, queries))
        np.testing.assert_array_equal(got, expected)

    def test_metrics_populated_after_traffic(self, served, small_problem):
        row = small_problem["test_features"][0]
        assert _post(served["port"], "/v1/predict", {"features": row.tolist()})[0] == 200
        with urllib.request.urlopen(
            f"http://127.0.0.1:{served['port']}/metrics", timeout=10
        ) as response:
            assert response.status == 200
            text = response.read().decode("utf-8")
        samples = dict(line.rsplit(" ", 1) for line in text.splitlines() if line[:1] != "#")
        assert float(samples['repro_requests_total{model="har"}']) > 0
        assert float(samples['repro_request_latency_seconds_count{model="har"}']) > 0


def _scrape(port):
    """``GET /metrics`` → (its content type, the exposition text)."""
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as response:
        return response.headers["Content-Type"], response.read().decode("utf-8")


class TestMetricsExposition:
    """``GET /metrics``, the one metrics surface, after the model answered a
    single-row predict: valid exposition declaring every family
    ``docs/observability.md`` lists."""

    @pytest.fixture
    def scraped(self, served, small_problem):
        row = small_problem["test_features"][0]
        assert _post(served["port"], "/v1/predict", {"features": row.tolist()})[0] == 200
        return _scrape(served["port"])

    def test_is_valid_prometheus_text(self, scraped):
        content_type, text = scraped
        assert content_type == CONTENT_TYPE
        validate_exposition(text)

    @pytest.mark.parametrize(
        "family, kind",
        [
            ("repro_requests_total", "counter"),
            ("repro_samples_total", "counter"),
            ("repro_errors_total", "counter"),
            ("repro_deadline_exceeded_total", "counter"),
            ("repro_batches_total", "counter"),
            ("repro_request_latency_seconds", "histogram"),
            ("repro_stage_latency_seconds", "histogram"),
            ("repro_scheduler_queue_depth", "gauge"),
        ],
    )
    def test_declares_family_with_a_series_for_the_model(self, scraped, family, kind):
        _, text = scraped
        lines = text.splitlines()
        assert f"# TYPE {family} {kind}" in lines
        assert any(
            line.startswith(family) and '{model="har"' in line for line in lines
        )

    def test_stage_histograms_cover_the_served_pipeline(self, scraped):
        # A single row is validated, waits in the micro-batch queue and runs
        # in a batch: each stage has observations of its own.
        _, text = scraped
        samples = dict(line.rsplit(" ", 1) for line in text.splitlines() if line[:1] != "#")
        for stage in ("validate", "queue_wait", "batch_execute"):
            key = f'repro_stage_latency_seconds_count{{model="har",stage="{stage}"}}'
            assert float(samples[key]) > 0


#: Malformed predicts that must be refused with a 400 before they reach code
#: that raises (a 500) or accept a deadline that never fires: (payload fields
#: beside a valid row, or the raw body; extra headers).
_MALFORMED = {
    "model-list": ({"model": ["har"]}, {}),
    "model-object": ({"model": {"name": "har"}}, {}),
    "content-length-not-integer": ({}, {"Content-Length": "2x"}),
    "body-not-utf8": (b'{"features": [0.5, "\xff"]}', {}),
    "deadline-nan": ({"deadline_ms": float("nan")}, {}),
    "deadline-infinity": ({"deadline_ms": float("inf")}, {}),
}


class TestPredictErrors:
    def test_missing_features_400(self, served):
        status, body = _post(served["port"], "/v1/predict", {"model": "har"})
        assert status == 400
        assert "features" in body["error"]

    def test_unknown_model_404(self, served, small_problem):
        row = small_problem["test_features"][0]
        status, body = _post(
            served["port"], "/v1/predict", {"model": "nope", "features": row.tolist()}
        )
        assert status == 404

    def test_wrong_feature_width_400(self, served):
        status, body = _post(served["port"], "/v1/predict", {"features": [1.0, 2.0]})
        assert status == 400

    def test_bad_top_k_400(self, served, small_problem):
        row = small_problem["test_features"][0]
        status, _ = _post(
            served["port"], "/v1/predict", {"features": row.tolist(), "top_k": 0}
        )
        assert status == 400

    def test_error_responses_close_keepalive_connection(self, served):
        # Error paths may leave an unread body on a persistent connection;
        # the server must signal Connection: close so the client cannot
        # misparse the leftover bytes as the next request.
        connection = http.client.HTTPConnection("127.0.0.1", served["port"], timeout=10)
        try:
            connection.request(
                "POST", "/v1/predict", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()

    def test_invalid_json_400(self, served):
        request = urllib.request.Request(
            f"http://127.0.0.1:{served['port']}/v1/predict",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_predict_is_400(self, served, small_problem, case):
        extra, headers = _MALFORMED[case]
        row = small_problem["test_features"][0].tolist()
        body = extra
        if isinstance(extra, dict):
            body = json.dumps({"features": row, **extra}).encode("utf-8")
        connection = http.client.HTTPConnection("127.0.0.1", served["port"], timeout=10)
        try:
            connection.request(
                "POST",
                "/v1/predict",
                body=body,
                headers={"Content-Type": "application/json", **headers},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert payload["code"] == "bad_request"

    def test_error_bodies_carry_machine_readable_codes(self, served, small_problem):
        row = small_problem["test_features"][0]
        _, body = _post(served["port"], "/v1/predict", {"model": "har"})
        assert body["code"] == "bad_request"
        _, body = _post(
            served["port"], "/v1/predict", {"model": "nope", "features": row.tolist()}
        )
        assert body["code"] == "not_found"


def _keepalive_latencies_ms(port, method, route, bodies):
    """Send one request per body on a single persistent connection."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    latencies = []
    try:
        for body in bodies:
            started = time.perf_counter()
            connection.request(
                method, route, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            response.read()
            latencies.append((time.perf_counter() - started) * 1e3)
            assert response.status == 200
            assert not response.will_close
    finally:
        connection.close()
    return latencies


class TestSocket:
    def test_keepalive_posts_do_not_wait_for_delayed_ack(self, served, small_problem):
        # Without TCP_NODELAY the body segment waits for the client's delayed
        # ACK of the header segment: ~40 ms on every keep-alive response.
        bodies = [
            json.dumps({"features": row.tolist()}).encode("utf-8")
            for row in small_problem["test_features"][:20]
        ]
        latencies = _keepalive_latencies_ms(
            served["port"], "POST", "/v1/predict", bodies
        )
        assert np.median(latencies) < 20.0, latencies

    def test_keepalive_readyz_pair_does_not_wait_for_delayed_ack(self, served):
        latencies = _keepalive_latencies_ms(
            served["port"], "GET", "/v1/readyz", [None, None]
        )
        assert max(latencies) < 20.0, latencies

    def test_connection_burst_is_not_dropped(self, served, small_problem):
        # A burst of fresh connections must fit the listen backlog; an
        # overflowing backlog drops SYNs, which surface as resets or ~1 s
        # retransmit stalls.
        clients = 64
        rows = small_problem["test_features"]
        barrier = threading.Barrier(clients)
        latencies, errors = [], []

        def connect_and_post(index):
            body = json.dumps({"features": rows[index % len(rows)].tolist()})
            barrier.wait(timeout=30)
            started = time.perf_counter()
            connection = http.client.HTTPConnection(
                "127.0.0.1", served["port"], timeout=10
            )
            try:
                connection.request(
                    "POST", "/v1/predict", body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == 200
                latencies.append(time.perf_counter() - started)
            except OSError as error:
                errors.append(repr(error))
            finally:
                connection.close()

        with ThreadPoolExecutor(max_workers=clients) as pool:
            for future in [pool.submit(connect_and_post, i) for i in range(clients)]:
                future.result()
        assert errors == []
        assert len(latencies) == clients
        assert max(latencies) < 1.0, sorted(latencies)[-5:]


@pytest.fixture()
def hardened(small_problem):
    """A server with tenant quotas, deadlines, and the access log on."""
    import logging

    from repro.serve import PackedInferenceEngine

    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=3)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=3))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    registry = ModelRegistry()
    registry.register("har", PackedInferenceEngine(pipeline, name="har"))
    quotas = TenantQuotas(max_concurrent=2)
    app = ServeApp(registry, max_batch_size=16, tenant_quotas=quotas)
    server = create_server(app, port=0, log_level="info")
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": port, "app": app, "server": server, "quotas": quotas}
    server.shutdown()
    server.server_close()
    app.close()
    # Detach the handler create_server added so repeated fixtures don't stack.
    logging.getLogger("repro.serve.access").handlers.clear()


def _wait_for_log_line(caplog, *needles, timeout=2.0):
    """The access-log line is written by the server thread after the response
    is sent, so the client can observe the response before the record exists
    — poll briefly instead of asserting immediately.
    """
    deadline = time.monotonic() + timeout
    while True:
        lines = [record.getMessage() for record in caplog.records]
        if any(all(needle in line for needle in needles) for line in lines):
            return
        if time.monotonic() >= deadline:
            raise AssertionError(f"no log line containing {needles}: {lines}")
        time.sleep(0.01)


class TestRobustness:
    def test_readyz_reports_ready(self, hardened):
        status, body = _get(hardened["port"], "/v1/readyz")
        assert status == 200
        assert body["status"] == "ready"

    def test_shed_answers_429_with_code_and_retry_after(
        self, hardened, small_problem, caplog
    ):
        import logging

        row = small_problem["test_features"][0]
        # Hold both of the tenant's slots so the next request must shed.
        leases = [hardened["quotas"].admit("har") for _ in range(2)]
        try:
            request = urllib.request.Request(
                f"http://127.0.0.1:{hardened['port']}/v1/predict",
                data=json.dumps({"features": row.tolist()}).encode(),
                headers={"Content-Type": "application/json"},
            )
            with caplog.at_level(logging.INFO, logger="repro.serve.access"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request, timeout=10)
            assert excinfo.value.code == 429
            assert excinfo.value.headers["Retry-After"] == "1"
            body = json.loads(excinfo.value.read())
            assert body["code"] == "tenant_quota_exceeded"
        finally:
            for lease in leases:
                lease.release()
        # The structured access log must make the shed greppable by tenant.
        _wait_for_log_line(
            caplog, "status=429", "code=tenant_quota_exceeded", "tenant=har"
        )

    def test_client_disconnect_is_one_access_log_line(
        self, hardened, small_problem, caplog, capfd, monkeypatch
    ):
        import logging
        import socket

        # The access log's own stream handler would write to stderr too;
        # its lines are read from caplog, so stderr holds only what bypasses
        # the access log (socketserver's traceback report).
        monkeypatch.setattr(logging.getLogger("repro.serve.access"), "handlers", [])
        capfd.readouterr()
        clients = 3
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            for _ in range(clients):
                # A request line and one header, then the client hangs up
                # before the server answers.
                with socket.create_connection(
                    ("127.0.0.1", hardened["port"]), timeout=10
                ) as client:
                    client.sendall(b"POST /v1/predict HTTP/1.1\r\nHost: x\r\n")
            deadline = time.monotonic() + 10
            while len(caplog.records) < clients:
                assert time.monotonic() < deadline, [
                    record.getMessage() for record in caplog.records
                ]
                time.sleep(0.01)
            status, _ = _post(
                hardened["port"],
                "/v1/predict",
                {"features": small_problem["test_features"][0].tolist()},
            )
            _wait_for_log_line(caplog, "status=200")
        assert status == 200
        assert capfd.readouterr().err == ""
        lines = [record.getMessage() for record in caplog.records]
        assert len(lines) == clients + 1, lines
        assert all("client=127.0.0.1" in line for line in lines), lines

    def test_client_resetting_mid_predict_is_one_access_log_line(
        self, hardened, small_problem, caplog, capfd, monkeypatch
    ):
        import logging
        import socket
        import struct

        app = hardened["app"]
        engine = app.registry.get("har")
        entered, release = threading.Event(), threading.Event()

        class Held:
            def top_k(self, features, k):
                entered.set()
                release.wait(timeout=30)
                return engine.top_k(features, k=k)

        monkeypatch.setattr(app, "engine_for", lambda name: Held())
        monkeypatch.setattr(logging.getLogger("repro.serve.access"), "handlers", [])
        capfd.readouterr()
        body = json.dumps({"features": small_problem["test_features"][0].tolist()})
        request = (
            f"POST /v1/predict HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n{body}"
        )
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            client = socket.create_connection(("127.0.0.1", hardened["port"]), timeout=10)
            client.sendall(request.encode())
            assert entered.wait(timeout=30)
            # Reset the connection while its answer is being computed, so
            # writing the 200 fails.
            client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            client.close()
            release.set()
            _wait_for_log_line(caplog, "disconnected")
        assert capfd.readouterr().err == ""
        lines = [record.getMessage() for record in caplog.records]
        assert len(lines) == 1 and "client=127.0.0.1 disconnected" in lines[0], lines

    def test_expired_deadline_answers_504_with_code(
        self, hardened, small_problem, caplog
    ):
        import logging

        row = small_problem["test_features"][0]
        with caplog.at_level(logging.INFO, logger="repro.serve.access"):
            status, body = _post(
                hardened["port"],
                "/v1/predict",
                {"features": row.tolist(), "deadline_ms": 1e-6},
            )
        assert status == 504
        assert body["code"] == "deadline_exceeded"
        _wait_for_log_line(caplog, "status=504", "code=deadline_exceeded")
        metrics = hardened["app"].metrics_snapshot()
        assert metrics["models"]["har"]["deadline_exceeded"] == 1

    def test_drain_flips_readyz_and_rejects_new_requests(
        self, hardened, small_problem
    ):
        row = small_problem["test_features"][0]
        status, _ = _get(hardened["port"], "/v1/readyz")
        assert status == 200
        hardened["app"].begin_drain()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(hardened["port"], "/v1/readyz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["status"] == "draining"
        status, body = _post(
            hardened["port"], "/v1/predict", {"features": row.tolist()}
        )
        assert status == 503
        assert body["code"] == "draining"


#: One case per error code a client can see: (app state, how to provoke it,
#: status, code, Retry-After header or None).  The app state is "draining",
#: or tenant quotas whose one token or slot a held lease takes.
_WIRE_ERRORS = {
    "bad_request": (None, {"top_k": 0}, 400, "bad_request", None),
    "invalid_json": (None, b"{", 400, "bad_request", None),
    "unknown_model": (None, {"model": "ghost"}, 404, "not_found", None),
    "unknown_route": (None, "/v1/nope", 404, "not_found", None),
    "payload_too_large": (None, "oversized", 413, "payload_too_large", None),
    "tenant_quota_exceeded": (
        {"max_concurrent": 1},
        {},
        429,
        "tenant_quota_exceeded",
        "1",
    ),
    "tenant_rate_limited": (
        {"rps": 0.01, "burst": 1.0},
        {},
        429,
        "tenant_rate_limited",
        "100",
    ),
    "draining": ("draining", {}, 503, "draining", "1"),
    "deadline_exceeded": (None, {"deadline_ms": 1e-6}, 504, "deadline_exceeded", None),
}


class TestErrorTaxonomyOnTheWire:
    """Every error status reaches the client as ``{"error", "code"}`` with
    ``Retry-After`` exactly on the back-off statuses, and closes the
    connection."""

    @pytest.fixture(scope="class")
    def engine(self, small_problem):
        from repro.serve import PackedInferenceEngine

        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=4)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=4))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        return PackedInferenceEngine(pipeline, name="har")

    @pytest.mark.parametrize("case", sorted(_WIRE_ERRORS))
    def test_status_code_and_retry_after(self, engine, small_problem, case):
        state, provoke, status, code, retry_after = _WIRE_ERRORS[case]
        registry = ModelRegistry()
        registry.register("har", engine)
        quotas = TenantQuotas(**state) if isinstance(state, dict) else None
        app = ServeApp(registry, tenant_quotas=quotas)
        server = create_server(app, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        row = small_problem["test_features"][0].tolist()
        route, headers = "/v1/predict", {"Content-Type": "application/json"}
        body = json.dumps({"features": row}).encode("utf-8")
        if isinstance(provoke, dict):
            body = json.dumps({"features": row, **provoke}).encode("utf-8")
        elif isinstance(provoke, bytes):
            body = provoke
        elif provoke == "oversized":
            # Announce more than the server accepts; it must refuse before
            # reading a byte of the body.
            headers["Content-Length"] = str(64 * 1024 * 1024 + 1)
        else:
            route = provoke
        try:
            if quotas is not None:
                quotas.admit("har")
            if state == "draining":
                app.begin_drain()
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            try:
                connection.request("POST", route, body=body, headers=headers)
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
        finally:
            server.shutdown()
            server.server_close()
            app.close()
        assert response.status == status
        assert payload["code"] == code
        assert isinstance(payload["error"], str) and payload["error"]
        assert response.getheader("Retry-After") == retry_after
        assert response.getheader("Connection") == "close"
