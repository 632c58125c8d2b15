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
from repro.serve import ModelRegistry, ServeApp, create_server


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
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(served["port"], "/v1/nonsense")
        assert excinfo.value.code == 404


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

    def test_concurrent_requests_all_correct(self, served, small_problem):
        queries = small_problem["test_features"][:24]
        expected = served["pipeline"].predict(queries)

        def call(row):
            _, body = _post(served["port"], "/v1/predict", {"features": row.tolist()})
            return body["labels"][0]

        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(call, queries))
        np.testing.assert_array_equal(got, expected)

    def test_metrics_populated_after_traffic(self, served):
        status, body = _get(served["port"], "/v1/metrics")
        assert status == 200
        model = body["models"]["har"]
        assert model["requests"] > 0
        assert model["latency"]["count"] > 0


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
    """A server with admission control, deadlines, and the access log on."""
    import logging

    from repro.serve import PackedInferenceEngine

    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=3)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=3))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    registry = ModelRegistry()
    registry.register("har", PackedInferenceEngine(pipeline, name="har"))
    app = ServeApp(
        registry,
        max_batch_size=16,
        cache_size=0,
        max_concurrent=2,
        max_queue_depth=64,
    )
    server = create_server(app, port=0, log_level="info")
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"port": port, "app": app, "server": server}
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
        app = hardened["app"]
        slot = app._admission_slot("har")
        # Exhaust both admission slots so the next request must shed.
        assert slot.acquire(blocking=False)
        assert slot.acquire(blocking=False)
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
            assert body["code"] == "overloaded"
        finally:
            slot.release()
            slot.release()
        # The structured access log must make the shed greppable.
        _wait_for_log_line(caplog, "status=429", "code=overloaded")

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
