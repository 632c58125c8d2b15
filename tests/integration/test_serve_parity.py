"""Integration: served answers are bit-identical to the offline engine.

For every way a request reaches the engine in one process — a single row,
a client batch, concurrent callers on their own threads, keep-alive HTTP
connections — the labels and scores ``ServeApp`` returns equal those of a
``PackedInferenceEngine`` built from the same saved file, for shared-rule
classifiers and ensemble banks alike.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import urllib.request

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
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
    "enhanced": lambda: EnhancedRetrainingHDC(iterations=3, seed=0),
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
    batch = app.predict({"features": queries.tolist(), "top_k": 3})
    assert batch["top_k_labels"] == labels.tolist()
    assert batch["top_k_scores"] == scores.astype(float).tolist()
    for row, query in enumerate(queries[:6]):
        single = app.predict({"features": query.tolist(), "top_k": 3})
        assert single["top_k_labels"] == [labels[row].tolist()]
        assert single["top_k_scores"] == [scores[row].astype(float).tolist()]


class TestTopKParity:
    @pytest.mark.parametrize("shape", ["single", "batch"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_top_k_matches_the_engine(self, saved_models, small_problem, k, shape):
        queries = small_problem["test_features"][:5]
        labels, scores = _reference(saved_models["baseline"]).top_k(queries, k=k)
        app = _app(saved_models["baseline"])
        if shape == "batch":
            answers = [app.predict({"features": queries.tolist(), "top_k": k})]
        else:
            answers = [
                app.predict({"features": query.tolist(), "top_k": k})
                for query in queries
            ]
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
        answer = app.predict({"features": features, "top_k": 10})
        assert answer["top_k_labels"] == labels.tolist()


def _run_concurrently(call, arguments):
    """Call ``call(*args)`` for each tuple in *arguments*, each on a thread
    of its own, all started before any is joined.  The threads share one
    engine with no lock of the app's; switching as often as the interpreter
    allows makes their engine calls interleave."""
    threads = [threading.Thread(target=call, args=args) for args in arguments]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("callers", [1, 2, 3, 5, 17])
def test_concurrent_callers_get_their_own_rows(saved_models, small_problem, callers):
    queries = small_problem["test_features"][1 : callers + 1]
    reference = _reference(saved_models["ensemble"])
    labels, scores = reference.top_k(queries, k=2)
    app = _app(saved_models["ensemble"])
    answers = [None] * callers

    def call(index):
        answers[index] = app.predict({"features": queries[index].tolist(), "top_k": 2})

    _run_concurrently(call, [(index,) for index in range(callers)])
    for index, answer in enumerate(answers):
        assert answer["top_k_labels"] == [labels[index].tolist()]
        assert answer["top_k_scores"] == [scores[index].astype(float).tolist()]


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 17])
def test_concurrent_client_batches_get_their_own_rows_in_order(
    saved_models, small_problem, rows
):
    # Four callers each send a client batch of *rows* different rows; each
    # gets back exactly its rows' answers, in the order it sent them.
    callers = 4
    queries = small_problem["test_features"][: callers * rows]
    labels, scores = _reference(saved_models["baseline"]).top_k(queries, k=1)
    app = _app(saved_models["baseline"])
    answers = [None] * callers

    def call(index):
        batch = queries[index * rows : (index + 1) * rows]
        answers[index] = app.predict({"features": batch.tolist()})

    _run_concurrently(call, [(index,) for index in range(callers)])
    for index, answer in enumerate(answers):
        mine = slice(index * rows, (index + 1) * rows)
        assert answer["labels"] == labels[mine, 0].tolist()
        assert answer["scores"] == scores[mine, 0].astype(float).tolist()


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_concurrent_callers_with_mixed_top_k_get_their_own_answers(
    saved_models, small_problem, strategy
):
    queries = small_problem["test_features"][:8]
    labels, scores = _reference(saved_models[strategy]).top_k(queries, k=4)
    app = _app(saved_models[strategy])
    ks = [1, 2, 3, 4, 4, 3, 2, 1]
    answers = [None] * len(queries)

    def call(index):
        answers[index] = app.predict(
            {"features": queries[index].tolist(), "top_k": ks[index]}
        )

    _run_concurrently(call, [(index,) for index in range(len(queries))])
    for index, (answer, k) in enumerate(zip(answers, ks)):
        assert answer["labels"] == [int(labels[index, 0])]
        if k == 1:
            assert "top_k_labels" not in answer
            assert answer["scores"] == [float(scores[index, 0])]
        else:
            assert answer["top_k_labels"] == [labels[index, :k].tolist()]
            assert answer["top_k_scores"] == [scores[index, :k].astype(float).tolist()]


def test_a_bad_row_fails_alone_among_concurrent_callers(saved_models, small_problem):
    queries = small_problem["test_features"][1:5]
    expected = _reference(saved_models["baseline"]).predict(queries).tolist()
    app = _app(saved_models["baseline"])
    outcomes = {}

    def call(key, features):
        try:
            outcomes[key] = app.predict({"features": features})["labels"][0]
        except RequestError as error:
            outcomes[key] = error.status

    arguments = [(index, query.tolist()) for index, query in enumerate(queries)]
    _run_concurrently(call, arguments + [("bad", queries[0][:-1].tolist())])
    assert outcomes.pop("bad") == 400
    assert [outcomes[index] for index in range(len(queries))] == expected


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
