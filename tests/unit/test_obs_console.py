"""Unit tests for repro.obs.console (the ``repro top`` dashboard)."""

import io
import json

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.obs.console import build_view, render_view, run_console
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas


def _snapshot(requests=100):
    return {
        "models": {
            "har": {
                "requests": requests,
                "errors": 2,
                "latency": {"p50_ms": 1.5, "p99_ms": 9.0},
            },
        },
        "schedulers": {"har": {"queue_depth": 4}},
    }


class TestBuildView:
    def test_flattens_tenant_row(self):
        view = build_view(_snapshot())
        (row,) = view["tenants"]
        assert row["tenant"] == "har"
        assert row["requests"] == 100
        assert row["errors"] == 2
        assert row["qps"] is None  # one poll cannot make a rate
        assert row["p99_ms"] == 9.0
        assert row["queue_depth"] == 4
        assert set(row) == {
            "tenant", "requests", "errors", "qps", "p50_ms", "p99_ms", "queue_depth"
        }

    def test_qps_is_delta_over_elapsed(self):
        view = build_view(
            _snapshot(requests=150), previous=_snapshot(requests=100), elapsed=2.0
        )
        assert view["tenants"][0]["qps"] == pytest.approx(25.0)

    def test_counter_reset_clamps_to_zero(self):
        view = build_view(
            _snapshot(requests=10), previous=_snapshot(requests=100), elapsed=2.0
        )
        assert view["tenants"][0]["qps"] == 0.0

    def test_shed_only_tenant_still_listed(self, small_problem):
        # A tenant whose only predict was shed (429) answered nothing, but
        # the shed is one of its model's errors, so it still gets a row.
        pipeline = HDCPipeline(RecordEncoder(dimension=128, seed=0), BaselineHDC())
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        registry = ModelRegistry()
        registry.register("ghost", PackedInferenceEngine(pipeline, name="ghost"))
        # A bucket that never holds a whole token sheds every request.
        app = ServeApp(registry, tenant_quotas=TenantQuotas(rps=1.0, burst=0.5))
        try:
            with pytest.raises(RequestError) as info:
                app.predict({"features": small_problem["test_features"][0].tolist()})
            view = build_view(app.metrics_snapshot())
        finally:
            app.close()
        assert info.value.status == 429
        (row,) = view["tenants"]
        assert (row["tenant"], row["requests"], row["errors"]) == ("ghost", 0, 1)

    def test_empty_snapshot(self):
        view = build_view({})
        assert view["tenants"] == []


class TestRenderView:
    def test_renders_all_sections_plain(self):
        text = render_view(build_view(_snapshot()), color=False)
        assert "TENANT" in text
        assert "har" in text
        assert "9.00" in text  # p99_ms
        assert "BUDGET" not in text and "VERDICT" not in text
        assert "\x1b[" not in text  # color off ⇒ no ANSI escapes

    def test_color_marks_the_header(self):
        text = render_view(build_view(_snapshot()), color=True)
        assert "\x1b[1mrepro top" in text  # bold title

    def test_handles_empty_view(self):
        text = render_view(build_view({}), color=False)
        assert "no traffic yet" in text


class TestRunConsole:
    def test_once_json_emits_view(self):
        stream = io.StringIO()
        code = run_console(
            "http://host:1", once=True, as_json=True, stream=stream,
            fetch=lambda url: _snapshot(),
        )
        assert code == 0
        view = json.loads(stream.getvalue())
        assert view["tenants"][0]["tenant"] == "har"

    def test_polling_computes_rates(self):
        stream = io.StringIO()
        snapshots = iter([_snapshot(requests=100), _snapshot(requests=160)])
        clocks = iter([0.0, 3.0])
        code = run_console(
            "http://host:1",
            interval=0.0,
            as_json=True,
            stream=stream,
            fetch=lambda url: next(snapshots),
            sleep=lambda seconds: None,
            clock=lambda: next(clocks),
            max_polls=2,
        )
        assert code == 0
        # Two JSON documents were written; the second carries the rate.
        decoder = json.JSONDecoder()
        text = stream.getvalue()
        first, index = decoder.raw_decode(text)
        second, _ = decoder.raw_decode(text[index:].lstrip())
        assert first["tenants"][0]["qps"] is None
        assert second["tenants"][0]["qps"] == pytest.approx(20.0)

    def test_fetch_failure_exits_nonzero(self, capsys):
        def boom(url):
            raise OSError("connection refused")

        code = run_console(
            "http://host:1", once=True, stream=io.StringIO(), fetch=boom
        )
        assert code == 1
        assert "cannot poll" in capsys.readouterr().err
