"""Unit tests for ServeApp's request contract: the error taxonomy, payload
validation, deadlines, per-model admission, SLO accounting and readiness."""

from __future__ import annotations

import threading
import time

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError


@pytest.fixture(scope="module")
def engine(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=3)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=3))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="m")


@pytest.fixture()
def make_app(engine):
    apps = []

    def build(names=("m",), **kwargs):
        registry = ModelRegistry()
        for name in names:
            registry.register(name, engine)
        kwargs.setdefault("cache_size", 0)
        app = ServeApp(registry, **kwargs)
        apps.append(app)
        return app

    yield build
    for app in apps:
        app.close()


@pytest.fixture()
def row(small_problem):
    return small_problem["test_features"][0].tolist()


class _HeldEngine:
    """An engine whose ``top_k`` blocks until ``release`` is set."""

    def __init__(self, engine):
        self._engine = engine
        self.entered = threading.Event()
        self.release = threading.Event()

    def top_k(self, features, k):
        self.entered.set()
        self.release.wait(timeout=30)
        return self._engine.top_k(features, k=k)


def _status(app, payload):
    with pytest.raises(RequestError) as info:
        app.predict(payload)
    return info.value


class TestRequestError:
    @pytest.mark.parametrize(
        "status, code",
        [
            (400, "bad_request"),
            (404, "not_found"),
            (413, "payload_too_large"),
            (429, "overloaded"),
            (500, "internal"),
            (503, "unavailable"),
            (504, "deadline_exceeded"),
        ],
    )
    def test_default_code_by_status(self, status, code):
        assert RequestError(status, "message").code == code

    @pytest.mark.parametrize("status", [429, 503])
    def test_backoff_statuses_default_to_retry_after_one(self, status):
        assert RequestError(status, "back off").retry_after == 1

    @pytest.mark.parametrize("status", [400, 404, 413, 500, 504])
    def test_other_statuses_carry_no_retry_after(self, status):
        assert RequestError(status, "no retry hint").retry_after is None

    def test_explicit_code_and_retry_after_win(self):
        error = RequestError(429, "slow down", code="tenant_rate_limited", retry_after=7)
        assert (error.status, error.code, error.retry_after) == (
            429,
            "tenant_rate_limited",
            7,
        )
        assert str(error) == "slow down"

    def test_unlisted_status_gets_the_generic_code(self):
        assert RequestError(418, "teapot").code == "error"


class TestPayloadValidation:
    @pytest.mark.parametrize("payload", [[1.0, 2.0], "features", 7, None])
    def test_non_object_body_rejected(self, make_app, payload):
        error = _status(make_app(), payload)
        assert (error.status, error.code) == (400, "bad_request")

    @pytest.mark.parametrize("top_k", [0, -1, "2", True, 1.5, None])
    def test_bad_top_k_rejected(self, make_app, row, top_k):
        error = _status(make_app(), {"features": row, "top_k": top_k})
        assert error.status == 400
        assert "top_k" in str(error)

    @pytest.mark.parametrize("deadline_ms", [0, -5, "soon", True, [10]])
    def test_bad_deadline_rejected(self, make_app, row, deadline_ms):
        error = _status(make_app(), {"features": row, "deadline_ms": deadline_ms})
        assert error.status == 400
        assert "deadline_ms" in str(error)

    def test_model_field_required_with_several_models(self, make_app, row):
        error = _status(make_app(names=("a", "b")), {"features": row})
        assert error.status == 400
        assert "'model'" in str(error)

    def test_sole_model_is_the_default(self, make_app, row, engine):
        answer = make_app(names=("only",)).predict({"features": row})
        assert answer["model"] == "only"
        assert answer["labels"] == engine.predict([row]).tolist()

    def test_unknown_model_is_404_and_names_the_tenant(self, make_app, row):
        error = _status(make_app(), {"features": row, "model": "ghost"})
        assert (error.status, error.code) == (404, "not_found")
        assert error.tenant == "ghost"

    @pytest.mark.parametrize("features", [3.0, [[[1.0]]]])
    def test_features_must_be_one_or_two_dimensional(self, make_app, features):
        error = _status(make_app(), {"features": features})
        assert error.status == 400
        assert "1-D or 2-D" in str(error)

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_wrong_feature_width_is_400_and_counted(self, make_app, row, shape):
        app = make_app()
        features = row[:-1] if shape == "single" else [row[:-1], row[:-1]]
        error = _status(app, {"features": features})
        assert error.status == 400
        assert app.metrics_snapshot()["models"]["m"]["errors"] == 1


class TestDeadlines:
    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_expired_deadline_answers_504_and_counts(self, make_app, row, shape):
        app = make_app()
        features = row if shape == "single" else [row, row]
        error = _status(app, {"features": features, "deadline_ms": 1e-6})
        assert (error.status, error.code) == (504, "deadline_exceeded")
        model = app.metrics_snapshot()["models"]["m"]
        assert model["deadline_exceeded"] == 1
        assert model["errors"] == 1

    def test_default_deadline_applies_when_the_request_sends_none(
        self, make_app, row
    ):
        app = make_app(default_deadline_ms=1e-6)
        error = _status(app, {"features": row})
        assert error.status == 504

    def test_request_deadline_overrides_the_default(self, make_app, row, engine):
        app = make_app(default_deadline_ms=1e-6)
        answer = app.predict({"features": row, "deadline_ms": 30_000})
        assert answer["labels"] == engine.predict([row]).tolist()

    def test_answer_arriving_after_the_deadline_is_504(self, make_app, row, engine):
        app = make_app()
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held
        result = {}

        def client():
            try:
                app.predict({"features": [row, row], "deadline_ms": 500})
            except RequestError as error:
                result["error"] = error

        sent = time.monotonic()
        thread = threading.Thread(target=client)
        thread.start()
        assert held.entered.wait(timeout=30)
        time.sleep(max(0.0, sent + 0.55 - time.monotonic()))
        held.release.set()
        thread.join(timeout=30)
        assert result["error"].status == 504
        assert "after its deadline" in str(result["error"])


class TestPredictionCache:
    def test_cache_entries_are_per_tenant(self, make_app, row):
        app = make_app(names=("a", "b"), cache_size=8)
        first = app.predict({"features": row, "model": "a"})
        other = app.predict({"features": row, "model": "b"})
        assert "cached" not in first
        assert "cached" not in other  # same payload, different tenant
        assert other["model"] == "b"
        assert app.predict({"features": row, "model": "b"})["cached"] is True
        models = app.metrics_snapshot()["models"]
        assert models["a"]["cache"] == {"hits": 0, "misses": 1, "hit_rate": 0.0}
        assert models["b"]["cache"] == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_failed_requests_are_not_cached(self, make_app, row):
        app = make_app(cache_size=8)
        assert _status(app, {"features": row, "deadline_ms": 1e-6}).status == 504
        answer = app.predict({"features": row})
        assert "cached" not in answer
        assert app.metrics_snapshot()["prediction_cache"]["entries"] == 1

class TestPerModelAdmission:
    @pytest.mark.parametrize("limit", [0, -1])
    def test_max_concurrent_must_be_positive(self, engine, limit):
        registry = ModelRegistry()
        registry.register("m", engine)
        with pytest.raises(ValueError, match="max_concurrent"):
            ServeApp(registry, max_concurrent=limit)

    def test_excess_requests_shed_with_overloaded(self, make_app, row, engine):
        app = make_app(max_concurrent=1)
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held
        thread = threading.Thread(
            target=app.predict, args=({"features": [row, row]},)
        )
        thread.start()
        try:
            assert held.entered.wait(timeout=30)
            error = _status(app, {"features": row})
            assert (error.status, error.code) == (429, "overloaded")
            assert error.retry_after == 1
            assert "concurrency limit" in str(error)
        finally:
            held.release.set()
            thread.join(timeout=30)
        assert app.metrics_snapshot()["models"]["m"]["sheds"] == 1

    def test_slot_is_released_after_a_failed_request(self, make_app, row, engine):
        app = make_app(max_concurrent=1)
        for _ in range(3):
            assert _status(app, {"features": row[:-1]}).status == 400
        answer = app.predict({"features": row})
        assert answer["labels"] == engine.predict([row]).tolist()

    def test_full_scheduler_queue_sheds_single_rows_only(self, make_app, row):
        app = make_app(max_queue_depth=0)
        error = _status(app, {"features": row})
        assert (error.status, error.code) == (429, "overloaded")
        # A client batch runs on the engine directly, past the scheduler.
        assert len(app.predict({"features": [row, row]})["labels"]) == 2


class TestSLOAccounting:
    def _tenant(self, app, name="m"):
        return app.metrics_snapshot()["slo"]["tenants"][name]

    def test_successes_are_good_events(self, make_app, row):
        app = make_app()
        for _ in range(3):
            app.predict({"features": row})
        tenant = self._tenant(app)
        assert tenant["requests"] == 3
        assert tenant["failures"] == 0

    @pytest.mark.parametrize(
        "payload",
        [{"top_k": 0}, {"features": [[[1.0]]]}, {"features": [1.0]}],
        ids=["bad-top-k", "3-d", "wrong-width"],
    )
    def test_client_faults_do_not_spend_the_budget(self, make_app, row, payload):
        app = make_app()
        app.predict({"features": row})
        request = {"features": row, **payload}
        assert _status(app, request).status == 400
        tenant = self._tenant(app)
        assert tenant["failures"] == 0
        assert tenant["budget_remaining"] == 1.0

    @pytest.mark.parametrize(
        "kwargs, payload_extra, status",
        [
            ({"max_queue_depth": 0}, {}, 429),
            ({}, {"deadline_ms": 1e-6}, 504),
        ],
        ids=["shed", "deadline"],
    )
    def test_server_faults_spend_the_budget(
        self, make_app, row, kwargs, payload_extra, status
    ):
        app = make_app(**kwargs)
        assert _status(app, {"features": row, **payload_extra}).status == status
        tenant = self._tenant(app)
        assert tenant["failures"] == 1
        assert tenant["budget_remaining"] < 1.0


class TestReadiness:
    def test_healthz_counts_registered_models(self, make_app):
        assert make_app(names=("a", "b", "c")).healthz() == {
            "status": "ok",
            "models": 3,
        }

    def test_readyz_is_200_until_a_drain_begins(self, make_app):
        app = make_app()
        assert app.readyz() == (200, {"status": "ready", "models": 1})
        app.begin_drain()
        status, body = app.readyz()
        assert status == 503
        assert body == {"status": "draining", "inflight": 0}
        assert app.draining

    def test_draining_app_refuses_new_requests(self, make_app, row):
        app = make_app()
        app.begin_drain()
        error = _status(app, {"features": row})
        assert (error.status, error.code, error.retry_after) == (503, "draining", 1)

    def test_metrics_snapshot_lists_only_started_schedulers(self, make_app, row):
        app = make_app(names=("a", "b"))
        assert "schedulers" not in app.metrics_snapshot()
        app.predict({"features": row, "model": "a"})
        app.predict({"features": [row], "model": "b"})  # direct engine path
        assert app.metrics_snapshot()["schedulers"] == {"a": {"queue_depth": 0}}

    def test_models_route_lists_every_version(self, make_app, engine):
        app = make_app()
        app.registry.register("m", engine)
        rows = app.models()["models"]
        assert [(row["name"], row["version"], row["default"]) for row in rows] == [
            ("m", 1, False),
            ("m", 2, True),
        ]
