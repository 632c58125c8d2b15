"""Integration: the documented SLO rules, evaluated over live ``/metrics``.

``docs/observability.md`` writes burn-rate alerting as Prometheus recording
and alerting rules over the series ``GET /metrics`` exports; the server
keeps no SLO state.  These tests hold that block to the serving stack:

* every series a rule reads is one a live ``ServeApp`` exports, and every
  latency threshold is a request-histogram bucket bound;
* each recording rule, evaluated over two scrapes taken around some traffic
  (the counter increase ``rate()`` sees across its window), gives the
  bad-event ratio that traffic should have: each failed predict and each
  answer above the threshold is bad, a predict that fails validation is no
  event, and replicas pool by model;
* the alerting rule pages only when both windows burn above 14.4x.

Evaluating a rule replaces each ``sum by (model) (rate(series[w]))`` term
with the summed increase of that series between the scrapes and computes
the arithmetic that is left.
"""

from __future__ import annotations

import re
import time
from pathlib import Path

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.obs import render_prometheus
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas

WINDOWS = ("5m", "1h")

#: One rule's ``expr: |`` block: the lines indented past the ``expr`` key.
_EXPR = r"\n {8}expr: \|\n((?: {10}.*\n)+)"

#: A ``sum by (model) (rate(name{labels}[window]))`` term of a rule.
_TERM = re.compile(
    r"sum by \(model\) \(rate\((repro_\w+)(?:\{([^}]*)\})?\[(\w+)\]\)\)"
)

#: What is left of an expression once its terms are numbers.
_ARITHMETIC = re.compile(r"^[\d.eE\s()+\-*/<>]*(?:and[\d.eE\s()+\-*/<>]*)*$")


def _rules() -> str:
    """The rules block (the YAML with recording rules) of the docs."""
    doc = Path(__file__).resolve().parents[2] / "docs" / "observability.md"
    blocks = re.findall(r"```yaml\n(.*?)```", doc.read_text(), flags=re.S)
    (rules,) = [block for block in blocks if "- record:" in block]
    return rules


def _expr(key: str) -> str:
    """The ``expr`` of the rule whose ``record:``/``alert:`` line is *key*."""
    match = re.search(re.escape(key) + _EXPR, _rules())
    assert match, f"no rule {key!r} in docs/observability.md"
    return match.group(1)


def _evaluate(arithmetic: str):
    assert _ARITHMETIC.match(arithmetic), arithmetic
    return eval("(" + arithmetic + ")", {"__builtins__": {}})


def _scrape(app: ServeApp) -> dict:
    """``{series: value}`` from the app's Prometheus exposition."""
    series = {}
    for line in render_prometheus(app.metrics_snapshot()).splitlines():
        if line.startswith("#"):
            continue
        name, value = line.split(" # ")[0].rsplit(" ", 1)
        series[name] = float(value)
    return series


def _ratio(window: str, scrapes, model: str = "m") -> float:
    """The ``model:slo_errors_per_request:ratio_rate<window>`` rule for
    *model*, over ``(before, after)`` scrapes of one or more replicas."""
    expr = _expr(f"record: model:slo_errors_per_request:ratio_rate{window}")

    def increase(term) -> str:
        name, labels, term_window = term.groups()
        assert term_window == window, term.group(0)
        selector = f'model="{model}"' + (f",{labels}" if labels else "")
        key = f"{name}{{{selector}}}"
        return repr(sum(after.get(key, 0.0) - before.get(key, 0.0) for before, after in scrapes))

    return _evaluate(_TERM.sub(increase, expr))


@pytest.fixture(scope="module")
def engine(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=3)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=3))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="m")


@pytest.fixture()
def make_app(engine):
    def build(**kwargs):
        registry = ModelRegistry()
        registry.register("m", engine)
        return ServeApp(registry, **kwargs)

    return build


@pytest.fixture()
def row(small_problem):
    return small_problem["test_features"][0].tolist()


class _CrashingEngine:
    def top_k(self, features, k):
        raise RuntimeError("engine crashed")


class _SlowEngine:
    """Answers correctly, after *seconds*."""

    def __init__(self, engine, seconds):
        self._engine = engine
        self._seconds = seconds

    def top_k(self, features, k):
        time.sleep(self._seconds)
        return self._engine.top_k(features, k=k)


def _answer(app, row, count=4):
    for _ in range(count):
        app.predict({"features": row})


def _fail(app, payload):
    with pytest.raises((RequestError, RuntimeError)):
        app.predict(payload)


class TestRulesReadExportedSeries:
    def test_every_series_and_threshold_is_exported(self, make_app, row):
        # Prometheus matches le as text, so the threshold must be spelled as
        # the exposition spells the bound.
        rules = _rules()
        app = make_app()
        app.predict({"features": row})
        snapshot = app.metrics_snapshot()
        text = render_prometheus(snapshot)
        exported = {
            re.split(r"[{ ]", line, maxsplit=1)[0]
            for line in text.splitlines()
            if not line.startswith("#")
        }
        names = set(re.findall(r"\brepro_\w+", rules))
        assert {
            "repro_requests_total",
            "repro_errors_total",
            "repro_request_latency_seconds_bucket",
        } <= names
        assert names <= exported, names - exported
        bounds = [bucket["le"] for bucket in snapshot["models"]["m"]["latency"]["buckets"]]
        thresholds = re.findall(r'le="([^"]+)"', rules)
        assert thresholds
        for le in thresholds:
            assert float(le) in bounds[:-1], le
            assert f'le="{le}"' in text


@pytest.mark.parametrize("window", WINDOWS)
class TestRecordingRules:
    def test_answers_under_the_threshold_are_good(self, make_app, row, window):
        app = make_app()
        before = _scrape(app)
        _answer(app, row, count=5)
        assert _ratio(window, [(before, _scrape(app))]) == 0.0

    @pytest.mark.parametrize(
        "outcome", ["429-tenant-shed", "500-engine-crash", "504-deadline"]
    )
    def test_a_failed_predict_is_a_bad_event(self, make_app, row, window, outcome):
        # A bucket of four tokens that never refills admits the four answers.
        quotas = TenantQuotas(rps=1e-3, burst=4.0) if outcome.startswith("429") else None
        app = make_app(tenant_quotas=quotas)
        before = _scrape(app)
        _answer(app, row)
        payload = {"features": row}
        if outcome.startswith("500"):
            app.engine_for = lambda name: _CrashingEngine()
        if outcome.startswith("504"):
            payload["deadline_ms"] = 1e-6
        _fail(app, payload)
        assert _ratio(window, [(before, _scrape(app))]) == pytest.approx(1 / 5)

    def test_an_answer_above_the_threshold_is_a_bad_event(
        self, make_app, row, engine, window
    ):
        # Slow is the new down: answered, but after the le="0.5" bound.
        app = make_app()
        before = _scrape(app)
        _answer(app, row)
        app.engine_for = lambda name: _SlowEngine(engine, 0.55)
        _answer(app, row, count=1)
        assert _ratio(window, [(before, _scrape(app))]) == pytest.approx(1 / 5)

    def test_an_engine_rejected_400_is_a_bad_event(self, make_app, row, window):
        # repro_errors_total counts the engine's 400 for a row of the wrong
        # width, so the rules spend the tenant's budget on it (the one
        # difference docs/observability.md states).
        app = make_app()
        before = _scrape(app)
        _answer(app, row)
        _fail(app, {"features": row[:-1]})
        assert _ratio(window, [(before, _scrape(app))]) == pytest.approx(1 / 5)

    @pytest.mark.parametrize(
        "payload",
        [{"top_k": 0}, {"features": [[[1.0]]]}, {"model": "nope"}],
        ids=["bad-top-k-400", "3-d-400", "unknown-model-404"],
    )
    def test_a_predict_that_fails_validation_is_no_event(
        self, make_app, row, window, payload
    ):
        app = make_app()
        before = _scrape(app)
        _answer(app, row)
        _fail(app, {"features": row, **payload})
        assert _ratio(window, [(before, _scrape(app))]) == 0.0

    def test_a_window_sees_only_its_own_increase(self, make_app, row, window):
        app = make_app()
        _fail(app, {"features": row, "deadline_ms": 1e-6})
        before = _scrape(app)
        _answer(app, row)
        assert _ratio(window, [(before, _scrape(app))]) == 0.0

    def test_replicas_pool_by_model(self, make_app, row, window):
        # One replica answers four, the other fails one of two: the ratio is
        # over the model's six predicts, not an average of per-replica ratios.
        healthy, failing = make_app(), make_app()
        scrapes = [_scrape(healthy), _scrape(failing)]
        _answer(healthy, row)
        _answer(failing, row, count=1)
        _fail(failing, {"features": row, "deadline_ms": 1e-6})
        pairs = [(scrapes[0], _scrape(healthy)), (scrapes[1], _scrape(failing))]
        assert _ratio(window, pairs) == pytest.approx(1 / 6)


class TestAlertingRule:
    @pytest.mark.parametrize(
        "ratio_5m, ratio_1h, fires",
        [
            (0.2, 0.2, True),
            (0.015, 0.015, True),
            (0.2, 0.0, False),
            (0.0, 0.2, False),
            (0.0144, 0.0144, False),
        ],
        ids=["both-burning", "both-just-above", "fast-only", "slow-only", "at-threshold"],
    )
    def test_pages_only_when_both_windows_burn(self, ratio_5m, ratio_1h, fires):
        expr = _expr("alert: ReproErrorBudgetBurn")
        for window, ratio in (("5m", ratio_5m), ("1h", ratio_1h)):
            name = f"model:slo_errors_per_request:ratio_rate{window}"
            assert name in expr
            expr = expr.replace(name, repr(ratio))
        assert _evaluate(expr) is fires
