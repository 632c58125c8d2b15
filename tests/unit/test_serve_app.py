"""Unit tests for ServeApp's request contract: the error taxonomy, payload
validation, deadlines, tenant admission, outcome accounting, readiness and
the one engine call each predict makes."""

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
    def build(names=("m",), **kwargs):
        registry = ModelRegistry()
        for name in names:
            registry.register(name, engine)
        return ServeApp(registry, **kwargs)

    return build


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


class _RecordingEngine:
    """Wraps an engine; records the shape of each ``top_k`` call's rows and
    the thread that made it."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = []

    def top_k(self, features, k):
        self.calls.append((features.shape, threading.current_thread().name))
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

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_wrong_feature_width_is_never_scored(self, make_app, row, shape):
        # The engine refuses the rows before it encodes them: no sample is
        # counted and the engine-call stage records nothing.
        app = make_app()
        wide = row + [0.0]
        features = wide if shape == "single" else [wide, wide, wide]
        error = _status(app, {"features": features})
        assert str(error) == f"features must have {len(row)} columns, got {len(wide)}"
        model = app.metrics_snapshot()["models"]["m"]
        assert model["samples"] == 0
        assert "batch_execute" not in model["stages"]


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

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_expired_deadline_never_reaches_the_engine(
        self, make_app, row, engine, shape
    ):
        app = make_app()
        recording = _RecordingEngine(engine)
        app.engine_for = lambda name: recording
        features = row if shape == "single" else [row, row]
        error = _status(app, {"features": features, "deadline_ms": 1e-6})
        assert str(error) == "deadline expired before execution"
        assert recording.calls == []
        assert app.metrics_snapshot()["models"]["m"]["samples"] == 0

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_live_deadline_answers_as_without_one(self, make_app, row, shape):
        app = make_app()
        features = row if shape == "single" else [row, row]
        plain = app.predict({"features": features, "top_k": 2})
        timed = app.predict({"features": features, "top_k": 2, "deadline_ms": 30_000})
        del plain["latency_ms"], timed["latency_ms"]
        assert timed == plain
        model = app.metrics_snapshot()["models"]["m"]
        assert (model["requests"], model["deadline_exceeded"]) == (2, 0)

    def test_a_deadline_passing_in_the_engine_fails_only_its_caller(
        self, make_app, row, engine
    ):
        # Caller "a" is held in the engine past its deadline; caller "b",
        # without one, is answered meanwhile and keeps its answer.
        app = make_app(names=("a", "b"))
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held if name == "a" else engine
        result = {}

        def client():
            try:
                app.predict({"features": row, "model": "a", "deadline_ms": 300})
            except RequestError as error:
                result["error"] = error

        thread = threading.Thread(target=client)
        thread.start()
        try:
            assert held.entered.wait(timeout=30)
            # The deadline was set before "a" entered the engine.
            entered = time.monotonic()
            answer = app.predict({"features": row, "model": "b"})
            time.sleep(max(0.0, entered + 0.35 - time.monotonic()))
        finally:
            held.release.set()
            thread.join(timeout=30)
        assert answer["labels"] == engine.predict([row]).tolist()
        assert result["error"].status == 504
        models = app.metrics_snapshot()["models"]
        assert (models["a"]["deadline_exceeded"], models["a"]["requests"]) == (1, 0)
        assert (models["b"]["deadline_exceeded"], models["b"]["requests"]) == (0, 1)


class TestRequestAccounting:
    """``requests`` and ``latency`` count each answered predict once, with the
    latency its caller saw; ``samples`` counts the rows the engine scored."""

    @staticmethod
    def _model(app):
        return app.metrics_snapshot()["models"]["m"]

    def test_single_row_latency_is_the_callers(self, make_app, row):
        app = make_app()
        answer = app.predict({"features": row})
        latency = self._model(app)["latency"]
        # Validation to response: it covers the answer's own latency_ms,
        # not just the engine call.
        assert latency["count"] == 1
        assert latency["sum_seconds"] * 1e3 >= answer["latency_ms"]

    def test_client_batch_counts_one_request_and_its_rows(self, make_app, row):
        app = make_app()
        answer = app.predict({"features": [row, row, row]})
        model = self._model(app)
        assert (model["requests"], model["samples"]) == (1, 3)
        assert model["latency"]["sum_seconds"] * 1e3 >= answer["latency_ms"]

    def test_repeated_payload_is_scored_every_time(self, make_app, row):
        app = make_app()
        first, second = (app.predict({"features": row}) for _ in range(2))
        assert second["labels"] == first["labels"]
        model = self._model(app)
        assert (model["requests"], model["samples"]) == (2, 2)


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

    def test_readyz_counts_the_request_in_the_engine_while_draining(
        self, make_app, row, engine
    ):
        app = make_app()
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(answer=app.predict({"features": row}))
        )
        thread.start()
        try:
            assert held.entered.wait(timeout=30)
            app.begin_drain()
            assert app.readyz() == (503, {"status": "draining", "inflight": 1})
            # A request that arrives now is refused; the admitted one is not.
            assert _status(app, {"features": row}).status == 503
        finally:
            held.release.set()
            thread.join(timeout=30)
        assert result["answer"]["labels"] == engine.predict([row]).tolist()
        assert app.readyz() == (503, {"status": "draining", "inflight": 0})

    def test_drain_gives_up_after_its_grace_on_a_stuck_request(
        self, make_app, row, engine
    ):
        app = make_app()
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held
        thread = threading.Thread(target=app.predict, args=({"features": row},))
        thread.start()
        try:
            assert held.entered.wait(timeout=30)
            started = time.monotonic()
            app.drain(grace_seconds=0.1)
            waited = time.monotonic() - started
            assert thread.is_alive()  # drain returned with the request still held
            assert 0.1 <= waited < 10
            assert app.readyz()[1]["inflight"] == 1
        finally:
            held.release.set()
            thread.join(timeout=30)

    def test_models_route_lists_one_row_per_name(self, make_app):
        app = make_app(names=("b", "a"))
        rows = app.models()["models"]
        assert [row["name"] for row in rows] == ["a", "b"]
        assert all(
            set(row)
            == {"name", "path", "strategy", "dimension", "num_classes", "models_per_class"}
            for row in rows
        )


class TestOneEngineCall:
    """Every predict, one row or a client batch, is one ``top_k`` call with a
    2-D array of its rows, on the thread that called ``predict``."""

    @pytest.mark.parametrize("shape, rows", [("1-d", 1), ("2-d", 1), ("2-d", 3)])
    def test_each_predict_is_one_engine_call_on_its_callers_thread(
        self, make_app, row, engine, shape, rows
    ):
        app = make_app()
        recording = _RecordingEngine(engine)
        app.engine_for = lambda name: recording
        features = row if shape == "1-d" else [row] * rows
        answer = app.predict({"features": features})
        assert recording.calls == [((rows, len(row)), threading.current_thread().name)]
        assert answer["labels"] == engine.predict([row] * rows).tolist()
        model = app.metrics_snapshot()["models"]["m"]
        assert model["samples"] == rows
        assert model["stages"]["batch_execute"]["count"] == 1

    def test_every_predict_resolves_its_engine_through_engine_for(self, make_app, row):
        # engine_for is the seam a test swaps a fake engine in at; it is
        # asked once per predict, so a swap takes effect on the next one.
        app = make_app(names=("a", "b"))
        resolved = []
        resolve = app.engine_for
        app.engine_for = lambda name: resolved.append(name) or resolve(name)
        for features in (row, [row, row]):
            for name in ("a", "b"):
                app.predict({"features": features, "model": name})
        assert resolved == ["a", "b", "a", "b"]

    def test_a_caller_in_the_engine_does_not_hold_up_another(
        self, make_app, row, engine
    ):
        # No lock of the app's spans the engine call: while one caller is
        # still in the engine, another is scored and answered.
        app = make_app(names=("a", "b"))
        held = _HeldEngine(engine)
        app.engine_for = lambda name: held if name == "a" else engine
        result = {}
        thread = threading.Thread(
            target=lambda: result.update(
                answer=app.predict({"features": [row, row], "model": "a"})
            )
        )
        thread.start()
        try:
            assert held.entered.wait(timeout=30)
            answer = app.predict({"features": row, "model": "b"})
            assert thread.is_alive()
        finally:
            held.release.set()
            thread.join(timeout=30)
        assert answer["labels"] == engine.predict([row]).tolist()
        assert result["answer"]["labels"] == engine.predict([row, row]).tolist()

    def test_an_engine_crash_leaves_the_next_predict_answered(
        self, make_app, row, engine
    ):
        app = make_app()
        crashing = _CrashingEngine()
        app.engine_for = lambda name: crashing
        with pytest.raises(RuntimeError):
            app.predict({"features": [row, row]})
        app.engine_for = lambda name: engine
        answer = app.predict({"features": row})
        assert answer["labels"] == engine.predict([row]).tolist()
        model = app.metrics_snapshot()["models"]["m"]
        assert (model["requests"], model["errors"], model["samples"]) == (1, 1, 1)
        app.begin_drain()
        assert app.readyz()[1]["inflight"] == 0


class _FrozenClock:
    """A monotonic clock that never advances: a bucket never refills."""

    def __call__(self) -> float:
        return 0.0


class TestTenantAdmission:
    """``admit()`` spends one token per predict that passes validation, one
    row or a client batch alike; a shed predict never reaches the engine."""

    @staticmethod
    def _tenants(app):
        return app.metrics_snapshot()["tenancy"]["tenants"]

    @pytest.mark.parametrize("rows", [1, 3, 17])
    def test_a_client_batch_spends_one_token_whatever_its_rows(
        self, make_app, row, rows
    ):
        app = make_app(tenant_quotas=TenantQuotas(rps=1.0, burst=2.0, clock=_FrozenClock()))
        for _ in range(2):
            assert len(app.predict({"features": [row] * rows})["labels"]) == rows
        error = _status(app, {"features": [row] * rows})
        assert (error.status, error.code) == (429, "tenant_rate_limited")
        assert self._tenants(app)["m"] == {"admitted": 2, "rate_limited": 1}

    @pytest.mark.parametrize("shape", ["single", "batch"])
    def test_a_shed_predict_never_reaches_the_engine(
        self, make_app, row, engine, shape
    ):
        # A bucket that never holds a whole token sheds every predict.
        app = make_app(tenant_quotas=TenantQuotas(rps=1.0, burst=0.5))
        recording = _RecordingEngine(engine)
        app.engine_for = lambda name: recording
        features = row if shape == "single" else [row, row]
        error = _status(app, {"features": features})
        assert (error.status, error.code, error.tenant) == (429, "tenant_rate_limited", "m")
        assert recording.calls == []
        model = app.metrics_snapshot()["models"]["m"]
        assert (model["errors"], model["samples"]) == (1, 0)

    @pytest.mark.parametrize(
        "payload",
        [{"top_k": 0}, {"features": [[[1.0]]]}, {"model": "ghost"}],
        ids=["bad-top-k-400", "3-d-400", "unknown-model-404"],
    )
    def test_a_predict_that_fails_validation_spends_no_token(
        self, make_app, row, payload
    ):
        app = make_app(tenant_quotas=TenantQuotas(rps=1.0, burst=1.0, clock=_FrozenClock()))
        assert _status(app, {"features": row, **payload}).status in (400, 404)
        # The one token is still there for the next, valid predict.
        app.predict({"features": row})
        assert self._tenants(app) == {"m": {"admitted": 1, "rate_limited": 0}}

    @pytest.mark.parametrize("outcome", ["400-wrong-width", "500-engine-crash", "504-deadline"])
    def test_a_predict_that_fails_after_admission_keeps_its_token_spent(
        self, make_app, row, outcome
    ):
        app = make_app(tenant_quotas=TenantQuotas(rps=1.0, burst=1.0, clock=_FrozenClock()))
        if outcome == "500-engine-crash":
            crashing = _CrashingEngine()
            resolve = app.engine_for
            app.engine_for = lambda name: crashing
            with pytest.raises(RuntimeError):
                app.predict({"features": row})
            app.engine_for = resolve
        elif outcome == "400-wrong-width":
            assert _status(app, {"features": row[:-1]}).status == 400
        else:
            assert _status(app, {"features": row, "deadline_ms": 1e-6}).status == 504
        # Admission is a rate, not a slot: nothing is handed back.
        assert _status(app, {"features": row}).status == 429
        assert self._tenants(app)["m"] == {"admitted": 1, "rate_limited": 1}

    def test_each_model_is_its_own_tenant(self, make_app, row):
        app = make_app(
            names=("a", "b"),
            tenant_quotas=TenantQuotas(rps=1.0, burst=1.0, clock=_FrozenClock()),
        )
        app.predict({"features": row, "model": "a"})
        assert _status(app, {"features": row, "model": "a"}).status == 429
        assert app.predict({"features": row, "model": "b"})["model"] == "b"
        assert self._tenants(app) == {
            "a": {"admitted": 1, "rate_limited": 1},
            "b": {"admitted": 1, "rate_limited": 0},
        }

    def test_a_shed_answer_says_when_a_token_will_be_back(self, make_app, row):
        # One token every 4 s: the second predict is told to retry in 4 s.
        app = make_app(tenant_quotas=TenantQuotas(rps=0.25, burst=1.0, clock=_FrozenClock()))
        app.predict({"features": row})
        error = _status(app, {"features": row})
        assert (error.status, error.retry_after) == (429, 4)
