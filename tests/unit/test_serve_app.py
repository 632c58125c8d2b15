"""Unit tests for ServeApp's request contract: the error taxonomy, payload
validation, deadlines, tenant admission, outcome accounting and readiness."""

from __future__ import annotations

import threading
import time

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas


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


class _CrashingEngine:
    """An engine whose ``top_k`` raises an unexpected (non-request) error."""

    def __init__(self):
        self.error = RuntimeError("engine crashed")

    def top_k(self, features, k):
        raise self.error


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

    @pytest.mark.parametrize(
        "deadline_ms",
        [0, -5, "soon", True, [10], float("nan"), float("inf"), 10**400],
        ids=["0", "-5", "soon", "True", "list", "nan", "inf", "10**400"],
    )
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

    @pytest.mark.parametrize(
        "model", [["m"], {"name": "m"}, 7], ids=["list", "object", "int"]
    )
    def test_model_must_be_a_string(self, make_app, row, model):
        error = _status(make_app(), {"features": row, "model": model})
        assert (error.status, str(error)) == (400, "'model' must be a string")

    def test_unknown_model_is_404_and_names_the_tenant(self, make_app, row):
        error = _status(make_app(), {"features": row, "model": "ghost"})
        assert (error.status, error.code) == (404, "not_found")
        assert error.tenant == "ghost"

    @pytest.mark.parametrize("features", [3.0, [[[1.0]]]])
    def test_features_must_be_one_or_two_dimensional(self, make_app, features):
        error = _status(make_app(), {"features": features})
        assert error.status == 400
        assert "1-D or 2-D" in str(error)

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_features_are_a_clean_400(self, make_app, row, bad):
        error = _status(make_app(), {"features": [bad] + row[1:]})
        assert error.status == 400
        assert "finite" in str(error)

    def test_ragged_rows_are_a_clean_400(self, make_app):
        error = _status(make_app(), {"features": [[1.0, 2.0], [3.0]]})
        assert error.status == 400
        assert "rectangular" in str(error)

    @pytest.mark.parametrize(
        "features", [["a", "b"], [10**400, 1.0]], ids=["strings", "int-beyond-float"]
    )
    def test_non_numeric_features_are_a_clean_400(self, make_app, features):
        error = _status(make_app(), {"features": features})
        assert error.status == 400

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


class TestRequestAccounting:
    """``requests`` and ``latency`` count each answered predict once, with the
    latency its caller saw; ``samples`` counts the rows the engine scored."""

    @staticmethod
    def _model(app):
        return app.metrics_snapshot()["models"]["m"]

    def test_coalesced_single_rows_count_one_request_each(self, make_app, row, engine):
        app = make_app()
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held
        clients = [
            threading.Thread(target=app.predict, args=({"features": row},))
            for _ in range(3)
        ]
        clients[0].start()
        try:
            assert held.entered.wait(timeout=30)
            for client in clients[1:]:
                client.start()
            scheduler = app.scheduler_for("m")
            waited = time.monotonic() + 30
            while scheduler.queue_depth < 2 and time.monotonic() < waited:
                time.sleep(0.001)
        finally:
            held.release.set()
            for client in clients:
                client.join(timeout=30)
        model = self._model(app)
        # The held batch of one, then the two queued behind it in one batch.
        assert model["batches"] == 2
        assert (model["requests"], model["latency"]["count"]) == (3, 3)
        assert model["samples"] == 3

    def test_single_row_latency_is_the_callers(self, make_app, row):
        app = make_app()
        answer = app.predict({"features": row})
        latency = self._model(app)["latency"]
        # Validation to response: it covers the answer's own latency_ms,
        # queue wait and hand-offs included, not just the engine call.
        assert latency["count"] == 1
        assert latency["sum_seconds"] * 1e3 >= answer["latency_ms"]

    def test_client_batch_counts_one_request_and_its_rows(self, make_app, row):
        app = make_app()
        answer = app.predict({"features": [row, row, row]})
        model = self._model(app)
        assert (model["requests"], model["samples"], model["batches"]) == (1, 3, 0)
        assert model["latency"]["sum_seconds"] * 1e3 >= answer["latency_ms"]

    def test_repeated_payload_is_scored_every_time(self, make_app, row):
        app = make_app()
        first, second = (app.predict({"features": row}) for _ in range(2))
        assert second["labels"] == first["labels"]
        model = self._model(app)
        assert (model["requests"], model["samples"], model["batches"]) == (2, 2, 2)


class TestOutcomeAccounting:
    """Every predict that passes validation is recorded exactly once: an
    answer in ``requests`` and ``latency``, a failure in ``errors`` (a 504
    also in ``deadline_exceeded``)."""

    @pytest.mark.parametrize(
        "outcome",
        ["200", "400-wrong-width", "429-tenant-shed", "500-engine-crash", "504-deadline"],
    )
    @pytest.mark.parametrize("shape", ["1-d", "2-d"])
    def test_each_predict_is_recorded_once(self, make_app, row, shape, outcome):
        status = int(outcome[:3])
        quotas = TenantQuotas(rps=1.0, burst=0.5) if status == 429 else None
        app = make_app(tenant_quotas=quotas)
        features = row[:-1] if status == 400 else row
        payload = {"features": features if shape == "1-d" else [features, features]}
        if status == 504:
            payload["deadline_ms"] = 1e-6
        if status == 200:
            app.predict(payload)
        elif status == 500:
            crashing = _CrashingEngine()
            app.engine_for = lambda name: crashing
            # The handler answers it 500; the app re-raises it unchanged.
            with pytest.raises(RuntimeError) as info:
                app.predict(payload)
            assert info.value is crashing.error
        else:
            assert _status(app, payload).status == status
        snapshot = app.metrics_snapshot()
        model = snapshot["models"]["m"]
        assert (model["requests"], model["errors"]) == (
            (1, 0) if status == 200 else (0, 1)
        )
        assert model["latency"]["count"] == model["requests"]
        assert model["deadline_exceeded"] == (1 if status == 504 else 0)
        assert "slo" not in snapshot

    @pytest.mark.parametrize(
        "payload",
        [{"top_k": 0}, {"features": [[[1.0]]]}, {"model": "nope"}],
        ids=["bad-top-k-400", "3-d-400", "unknown-model-404"],
    )
    def test_a_predict_that_fails_validation_is_not_recorded(
        self, make_app, row, payload
    ):
        # Neither repro_requests_total nor repro_errors_total moves, so the
        # SLO rules over them never count a malformed request.
        app = make_app()
        app.predict({"features": row})
        assert _status(app, {"features": row, **payload}).status in (400, 404)
        model = app.metrics_snapshot()["models"]["m"]
        assert (model["requests"], model["errors"]) == (1, 0)


class TestTenantAdmission:
    """``TenantQuotas`` is the one admission limit, for both request shapes."""

    @pytest.mark.parametrize(
        "held, shed", [("batch", "single"), ("single", "batch")]
    )
    def test_request_in_the_engine_holds_the_one_slot(
        self, make_app, row, engine, held, shed
    ):
        app = make_app(tenant_quotas=TenantQuotas(max_concurrent=1))
        gate = _HeldEngine(engine)
        app.engine_for = lambda name: gate
        shapes = {"single": row, "batch": [row, row]}
        thread = threading.Thread(
            target=app.predict, args=({"features": shapes[held]},)
        )
        thread.start()
        try:
            assert gate.entered.wait(timeout=30)
            error = _status(app, {"features": shapes[shed]})
            assert (error.status, error.code) == (429, "tenant_quota_exceeded")
            assert error.retry_after == 1
        finally:
            gate.release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        snapshot = app.metrics_snapshot()
        assert snapshot["tenancy"]["tenants"]["m"]["quota_exceeded"] == 1
        assert snapshot["models"]["m"]["errors"] == 1
        assert snapshot["models"]["m"]["requests"] == 1

    @pytest.mark.parametrize("failure, status", [("wrong-width", 400), ("deadline", 504)])
    def test_failed_single_row_hands_its_lease_back(
        self, make_app, row, engine, failure, status
    ):
        quotas = TenantQuotas(max_concurrent=1)
        app = make_app(tenant_quotas=quotas)
        payload = (
            {"features": row[:-1]}
            if failure == "wrong-width"
            else {"features": row, "deadline_ms": 1e-6}
        )
        for _ in range(3):
            assert _status(app, payload).status == status
        assert quotas.snapshot()["tenants"]["m"]["in_flight"] == 0
        answer = app.predict({"features": row})
        assert answer["labels"] == engine.predict([row]).tolist()


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

    def test_models_route_lists_one_row_per_name(self, make_app):
        app = make_app(names=("b", "a"))
        rows = app.models()["models"]
        assert [row["name"] for row in rows] == ["a", "b"]
        assert all(
            set(row)
            == {"name", "path", "strategy", "dimension", "num_classes", "models_per_class"}
            for row in rows
        )


def test_each_model_resolves_its_engine_once_for_its_single_rows(make_app, row):
    # A model's scheduler takes its engine when it is built, not per batch.
    app = make_app(names=("a", "b"))
    resolved = []
    resolve = app.engine_for
    app.engine_for = lambda name: resolved.append(name) or resolve(name)
    for _ in range(20):
        for name in ("a", "b"):
            app.predict({"features": row, "model": name})
    assert sorted(resolved) == ["a", "b"]
