"""Unit tests for repro.obs.console (the ``repro top`` dashboard)."""

import io
import json

import pytest

from repro.obs.console import build_view, render_view, run_console


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
        "slo": {
            "alert_burn_rate": 14.4,
            "tenants": {
                "har": {
                    "budget_remaining": 0.9,
                    "windows": {
                        "fast": {"burn_rate": 1.5},
                        "slow": {"burn_rate": 0.5},
                    },
                    "verdict": "ok",
                },
            },
        },
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
        assert row["budget_remaining"] == 0.9
        assert row["burn_fast"] == 1.5
        assert row["verdict"] == "ok"

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

    def test_slo_only_tenant_still_listed(self):
        # A tenant that has only shed (429) requests never reaches the model
        # metrics, but its burning SLO must still show up on the console.
        snapshot = _snapshot()
        snapshot["slo"]["tenants"]["ghost"] = {
            "budget_remaining": 0.0,
            "windows": {},
            "verdict": "breached",
        }
        view = build_view(snapshot)
        assert [row["tenant"] for row in view["tenants"]] == ["ghost", "har"]
        assert view["tenants"][0]["verdict"] == "breached"

    def test_empty_snapshot(self):
        view = build_view({})
        assert view["tenants"] == []


class TestRenderView:
    def test_renders_all_sections_plain(self):
        text = render_view(build_view(_snapshot()), color=False)
        assert "TENANT" in text
        assert "har" in text
        assert "ok" in text
        assert "burn-rate threshold: 14.4x" in text
        assert "\x1b[" not in text  # color off ⇒ no ANSI escapes

    def test_color_marks_verdict(self):
        text = render_view(build_view(_snapshot()), color=True)
        assert "\x1b[32mok\x1b[0m" in text  # green verdict

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
