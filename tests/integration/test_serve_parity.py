"""Integration: served answers are bit-identical to the offline engine.

For every serving path a request can take in one process — a single row
through the micro-batcher (alone or coalesced with other callers), a client
batch straight on the engine, over keep-alive HTTP connections — the labels
and scores ``ServeApp`` returns equal those of a ``PackedInferenceEngine``
built from the same saved file, for shared-rule classifiers and ensemble
banks alike.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.hdc.encoders import RecordEncoder
from repro.io import load_model, save_model
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp, create_server
from repro.serve.server import RequestError

STRATEGIES = {
    "baseline": lambda: BaselineHDC(seed=0),
    "ensemble": lambda: MultiModelHDC(models_per_class=4, iterations=1, seed=0),
    "retraining": lambda: RetrainingHDC(iterations=3, seed=0),
    "adapthd": lambda: AdaptHDC(iterations=3, seed=0),
    "lehdc": lambda: LeHDCClassifier(config=LeHDCConfig(epochs=3, batch_size=32), seed=0),
}


@pytest.fixture(scope="module")
def saved_models(small_problem, tmp_path_factory):
    """One saved model per strategy, written the way ``repro train`` does."""
    directory = tmp_path_factory.mktemp("serve-parity")
    paths = {}
    for name, make in STRATEGIES.items():
        encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(encoder, make())
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        paths[name] = save_model(directory / f"{name}.npz", pipeline, strategy_name=name)
    return paths


def _app(path):
    registry = ModelRegistry()
    registry.register("m", path)
    return ServeApp(registry)


def _reference(path):
    return PackedInferenceEngine(load_model(path), name="reference")


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_served_answers_match_offline_for_saved_models(
    saved_models, small_problem, strategy
):
    queries = small_problem["test_features"][:12]
    labels, scores = _reference(saved_models[strategy]).top_k(queries, k=3)
    app = _app(saved_models[strategy])
    try:
        batch = app.predict({"features": queries.tolist(), "top_k": 3})
        assert batch["top_k_labels"] == labels.tolist()
        assert batch["top_k_scores"] == scores.astype(float).tolist()
        for row, query in enumerate(queries[:6]):
            single = app.predict({"features": query.tolist(), "top_k": 3})
            assert single["top_k_labels"] == [labels[row].tolist()]
            assert single["top_k_scores"] == [scores[row].astype(float).tolist()]
    finally:
        app.close()


class TestTopKParity:
    @pytest.mark.parametrize("shape", ["single", "batch"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_top_k_matches_the_engine(self, saved_models, small_problem, k, shape):
        queries = small_problem["test_features"][:5]
        labels, scores = _reference(saved_models["baseline"]).top_k(queries, k=k)
        app = _app(saved_models["baseline"])
        try:
            if shape == "batch":
                answers = [app.predict({"features": queries.tolist(), "top_k": k})]
            else:
                answers = [
                    app.predict({"features": query.tolist(), "top_k": k})
                    for query in queries
                ]
        finally:
            app.close()
        served_labels = [row for answer in answers for row in answer["labels"]]
        assert served_labels == labels[:, 0].tolist()
        if k == 1:
            served_scores = [row for answer in answers for row in answer["scores"]]
            assert served_scores == scores[:, 0].astype(float).tolist()
        else:
            assert [row for answer in answers for row in answer["top_k_labels"]] == (
                labels.tolist()
            )
            assert [row for answer in answers for row in answer["top_k_scores"]] == (
                scores.astype(float).tolist()
            )

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_k_beyond_the_class_count_is_clipped(
        self, saved_models, small_problem, shape
    ):
        query = small_problem["test_features"][0]
        labels, _ = _reference(saved_models["baseline"]).top_k(query[None, :], k=10)
        assert labels.shape == (1, small_problem["num_classes"])
        features = query.tolist() if shape == "single" else [query.tolist()]
        app = _app(saved_models["baseline"])
        try:
            answer = app.predict({"features": features, "top_k": 10})
        finally:
            app.close()
        assert answer["top_k_labels"] == labels.tolist()


class _HoldFirstBatch:
    """Holds the first engine call until ``release`` is set, so requests
    queued meanwhile coalesce into the next batch; records batch sizes."""

    def __init__(self, engine):
        self._engine = engine
        self.num_features = engine.num_features
        self.batch_sizes = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def top_k(self, features, k):
        self.batch_sizes.append(features.shape[0])
        self.entered.set()
        self.release.wait(timeout=30)
        return self._engine.top_k(features, k=k)


def _wait_for_queue(scheduler, depth, timeout=10.0):
    """Block until *depth* requests wait behind the held batch."""
    deadline = time.monotonic() + timeout
    while scheduler.queue_depth < depth:
        assert time.monotonic() < deadline, f"queue stuck at {scheduler.queue_depth}"
        time.sleep(0.001)


@pytest.mark.parametrize("callers", [1, 2, 3, 5, 17])
def test_concurrent_callers_get_their_own_rows(saved_models, small_problem, callers):
    queries = small_problem["test_features"][1 : callers + 1]
    reference = _reference(saved_models["ensemble"])
    labels, scores = reference.top_k(queries, k=2)
    app = _app(saved_models["ensemble"])
    held = _HoldFirstBatch(app.registry.get("m"))
    app.engine_for = lambda name: held
    answers = [None] * callers

    def call(index):
        answers[index] = app.predict({"features": queries[index].tolist(), "top_k": 2})

    first = threading.Thread(
        target=app.predict, args=({"features": small_problem["test_features"][0].tolist()},)
    )
    first.start()
    try:
        assert held.entered.wait(timeout=30)
        threads = [threading.Thread(target=call, args=(i,)) for i in range(callers)]
        for thread in threads:
            thread.start()
        _wait_for_queue(app.scheduler_for("m"), callers)
        held.release.set()
        for thread in threads:
            thread.join(timeout=30)
        first.join(timeout=30)
    finally:
        held.release.set()
        app.close()
    assert held.batch_sizes == [1, callers]
    for index, answer in enumerate(answers):
        assert answer["top_k_labels"] == [labels[index].tolist()]
        assert answer["top_k_scores"] == [scores[index].astype(float).tolist()]


def test_bad_row_does_not_poison_its_batch(saved_models, small_problem):
    queries = small_problem["test_features"][1:5]
    expected = _reference(saved_models["baseline"]).predict(queries).tolist()
    app = _app(saved_models["baseline"])
    held = _HoldFirstBatch(app.registry.get("m"))
    app.engine_for = lambda name: held
    outcomes = {}

    def call(key, features):
        try:
            outcomes[key] = app.predict({"features": features})["labels"][0]
        except RequestError as error:
            outcomes[key] = error.status

    first = threading.Thread(
        target=call, args=("first", small_problem["test_features"][0].tolist())
    )
    first.start()
    try:
        assert held.entered.wait(timeout=30)
        threads = [
            threading.Thread(target=call, args=(index, query.tolist()))
            for index, query in enumerate(queries)
        ]
        threads.append(
            threading.Thread(target=call, args=("bad", queries[0][:-1].tolist()))
        )
        for thread in threads:
            thread.start()
        _wait_for_queue(app.scheduler_for("m"), len(threads))
        held.release.set()
        for thread in threads:
            thread.join(timeout=30)
        first.join(timeout=30)
    finally:
        held.release.set()
        app.close()
    assert outcomes.pop("bad") == 400
    outcomes.pop("first")
    assert [outcomes[index] for index in range(len(queries))] == expected
    # The short row fails before the stack; the rest run as one batch.
    assert held.batch_sizes == [1, len(queries)]


def test_keepalive_clients_soak_the_http_endpoint(saved_models, small_problem):
    """Four clients, each on one keep-alive connection, share 40 rows."""
    reference = _reference(saved_models["baseline"])
    app = _app(saved_models["baseline"])
    server = create_server(app, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    rows = np.random.default_rng(0).random((40, 24))
    clients = 4
    labels = {}
    errors = []

    def client(index):
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            sock = None
            for row_index in range(index, len(rows), clients):
                body = json.dumps({"features": rows[row_index].tolist()})
                connection.request("POST", "/v1/predict", body=body)
                # Every answer leaves the connection open: no request of
                # this client opens a second socket.
                sock = sock or connection.sock
                if connection.sock is not sock:
                    errors.append(f"client {index} reconnected")
                response = connection.getresponse()
                payload = json.loads(response.read())
                if response.status != 200:
                    errors.append((response.status, payload))
                    continue
                labels[row_index] = payload["labels"]
        except (OSError, http.client.HTTPException) as error:
            errors.append(repr(error))
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    try:
        for worker in threads:
            worker.start()
        for worker in threads:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in threads)
        with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as response:
            text = response.read().decode("utf-8")
    finally:
        server.shutdown()
        server.server_close()
        app.close()
    assert errors == []
    assert [labels[index] for index in range(len(rows))] == [
        [label] for label in reference.predict(rows).tolist()
    ]
    (counted,) = [
        float(line.rsplit(" ", 1)[1])
        for line in text.splitlines()
        if line.startswith('repro_requests_total{model="m"} ')
    ]
    assert counted >= len(labels)
