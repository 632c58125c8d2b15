"""Unit tests for repro.obs.slo (error budgets, burn rates, alerts)."""

import json
import logging

import pytest

from repro.obs.slo import (
    DEFAULT_ALERT_BURN_RATE,
    FAST_WINDOW_SECONDS,
    SLOW_WINDOW_SECONDS,
    SLOConfig,
    SLOEngine,
    SLOSpec,
)


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def no_answers(tenant, percentile):
    """The latency source of a tenant with no answered request yet."""
    return 0.0


class TestSLOSpec:
    def test_defaults(self):
        spec = SLOSpec()
        assert spec.availability == 0.999
        assert spec.error_budget == pytest.approx(0.001)
        assert spec.latency_percentile == 99.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(availability=1.0)
        with pytest.raises(ValueError):
            SLOSpec(availability=0.0)
        with pytest.raises(ValueError):
            SLOSpec(latency_ms=0.0)
        with pytest.raises(ValueError):
            SLOSpec(latency_percentile=0.0)

    def test_merged_partial_override(self):
        spec = SLOSpec().merged({"latency_ms": 100})
        assert spec.latency_ms == 100.0
        assert spec.availability == 0.999  # inherited
        with pytest.raises(ValueError, match="unknown"):
            SLOSpec().merged({"latencyms": 5})


class TestSLOConfig:
    def test_from_file_with_tenant_overrides(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps(
                {
                    "default": {"availability": 0.99, "latency_ms": 500},
                    "tenants": {"model-0": {"latency_ms": 50}},
                }
            )
        )
        config = SLOConfig.from_file(path)
        assert config.default.availability == 0.99
        # Tenant override inherits the file default, not the library default.
        assert config.for_tenant("model-0").availability == 0.99
        assert config.for_tenant("model-0").latency_ms == 50.0
        assert config.for_tenant("anything-else").latency_ms == 500.0

    def test_rejects_bad_payloads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json{")
        with pytest.raises(ValueError, match="invalid JSON"):
            SLOConfig.from_file(path)
        with pytest.raises(ValueError, match="unknown"):
            SLOConfig.from_dict({"defautl": {}})
        with pytest.raises(ValueError):
            SLOConfig.from_dict({"tenants": ["a"]})
        # A spec that is not a JSON object, or a field that is not a number,
        # is a ValueError (the CLI's "bad SLO config"), never a traceback.
        for bad in (
            {"default": None},
            {"default": []},
            {"tenants": {"a": None}},
            {"tenants": {"a": []}},
            {"default": {"latency_ms": None}},
            {"tenants": {"a": {"availability": [0.9]}}},
        ):
            with pytest.raises(ValueError):
                SLOConfig.from_dict(bad)

    def test_round_trip(self):
        config = SLOConfig.from_dict(
            {"tenants": {"t": {"availability": 0.95}}}
        )
        rebuilt = SLOConfig.from_dict(config.to_dict())
        assert rebuilt.for_tenant("t").availability == 0.95


class TestBurnRates:
    def test_all_good_traffic_burns_nothing(self):
        clock = FakeClock()
        engine = SLOEngine(no_answers, clock=clock)
        for _ in range(100):
            engine.record("t", ok=True, latency_s=0.001)
        snapshot = engine.snapshot()["tenants"]["t"]
        assert snapshot["windows"]["fast"]["burn_rate"] == 0.0
        assert snapshot["budget_remaining"] == 1.0
        assert snapshot["verdict"] == "ok"
        assert snapshot["latency"]["objective_met"] is True

    def test_failures_burn_budget(self):
        clock = FakeClock()
        # 99% availability -> 1% budget; 10% failures -> burn rate 10.
        engine = SLOEngine(
            no_answers,
            config=SLOConfig(default=SLOSpec(availability=0.99)), clock=clock
        )
        for index in range(100):
            engine.record("t", ok=index % 10 != 0, latency_s=0.001)
        snapshot = engine.snapshot()["tenants"]["t"]
        assert snapshot["windows"]["fast"]["burn_rate"] == pytest.approx(10.0)
        assert snapshot["windows"]["slow"]["burn_rate"] == pytest.approx(10.0)
        assert snapshot["requests"] == 100
        assert snapshot["bad_requests"] == 10
        assert snapshot["failures"] == 10

    def test_slow_requests_spend_budget_like_failures(self):
        clock = FakeClock()
        engine = SLOEngine(
            lambda tenant, percentile: 0.5,  # the one answer took 500 ms
            config=SLOConfig(default=SLOSpec(latency_ms=10.0)),
            clock=clock,
        )
        engine.record("t", ok=True, latency_s=0.5)  # slow success = bad event
        snapshot = engine.snapshot()["tenants"]["t"]
        assert snapshot["bad_requests"] == 1
        assert snapshot["failures"] == 0
        assert snapshot["latency"]["objective_met"] is False

    def test_fast_window_forgets_old_badness(self):
        clock = FakeClock()
        engine = SLOEngine(no_answers, clock=clock)
        for _ in range(50):
            engine.record("t", ok=False, latency_s=0.001)
        clock.advance(FAST_WINDOW_SECONDS + 10)
        engine.record("t", ok=True, latency_s=0.001)
        snapshot = engine.snapshot()["tenants"]["t"]
        fast = snapshot["windows"]["fast"]
        assert fast["bad"] == 0
        assert fast["good"] == 1
        # The slow window still remembers.
        assert snapshot["windows"]["slow"]["bad"] == 50

    def test_slow_window_forgets_after_an_hour(self):
        clock = FakeClock()
        engine = SLOEngine(no_answers, clock=clock)
        engine.record("t", ok=False, latency_s=0.001)
        clock.advance(SLOW_WINDOW_SECONDS + 120)
        engine.record("t", ok=True, latency_s=0.001)
        slow = engine.snapshot()["tenants"]["t"]["windows"]["slow"]
        assert slow["bad"] == 0
        assert slow["good"] == 1

    def test_budget_exhaustion_is_a_breach(self):
        clock = FakeClock()
        engine = SLOEngine(
            no_answers,
            config=SLOConfig(default=SLOSpec(availability=0.9)), clock=clock
        )
        for _ in range(5):
            engine.record("t", ok=False, latency_s=0.001)
        for _ in range(5):
            engine.record("t", ok=True, latency_s=0.001)
        snapshot = engine.snapshot()["tenants"]["t"]
        # 50% bad vs a 10% budget: 5x overspent, clamped to an empty budget.
        assert snapshot["budget_remaining"] == 0.0
        assert snapshot["verdict"] == "breached"


class TestAlerting:
    def test_alert_fires_once_and_resolves(self, caplog):
        clock = FakeClock()
        engine = SLOEngine(
            no_answers,
            config=SLOConfig(default=SLOSpec(availability=0.99)),
            clock=clock,
            alert_burn_rate=5.0,
        )
        with caplog.at_level(logging.INFO, logger="repro.serve.slo"):
            for _ in range(20):
                engine.record("t", ok=False, latency_s=0.001)
            firing = [r for r in caplog.records if "state=firing" in r.message]
            assert len(firing) == 1
            assert "tenant=t" in firing[0].message
            assert firing[0].levelno == logging.WARNING
            # Recover: outrun the fast window with good traffic.
            clock.advance(FAST_WINDOW_SECONDS + 10)
            engine.record("t", ok=True, latency_s=0.001)
            resolved = [r for r in caplog.records if "state=resolved" in r.message]
            assert len(resolved) == 1
            assert resolved[0].levelno == logging.INFO

    def test_alerting_requires_both_windows(self):
        clock = FakeClock()
        engine = SLOEngine(
            no_answers,
            config=SLOConfig(default=SLOSpec(availability=0.99)),
            clock=clock,
            alert_burn_rate=5.0,
        )
        # Saturate the slow window with *good* traffic, let it age past the
        # fast window, then burst badness: the fast window burns hard but
        # the slow window stays below threshold -> no page.
        for _ in range(2000):
            engine.record("t", ok=True, latency_s=0.001)
        clock.advance(FAST_WINDOW_SECONDS + 10)
        for _ in range(20):
            engine.record("t", ok=False, latency_s=0.001)
        snapshot = engine.snapshot()["tenants"]["t"]
        assert snapshot["windows"]["fast"]["burn_rate"] >= 5.0
        assert snapshot["windows"]["slow"]["burn_rate"] < 5.0
        assert snapshot["alerting"] is False
        assert snapshot["verdict"] == "ok"

    def test_default_threshold(self):
        assert SLOEngine(no_answers).alert_burn_rate == DEFAULT_ALERT_BURN_RATE
        with pytest.raises(ValueError):
            SLOEngine(no_answers, alert_burn_rate=0.0)


class TestSnapshot:
    def test_snapshot_is_json_ready_and_sorted(self):
        clock = FakeClock()
        engine = SLOEngine(no_answers, clock=clock)
        engine.record("b", ok=True, latency_s=0.002)
        engine.record("a", ok=True, latency_s=0.002)
        snapshot = engine.snapshot()
        json.dumps(snapshot)
        assert list(snapshot["tenants"]) == ["a", "b"]
        assert snapshot["default_spec"]["availability"] == 0.999

    def test_objective_is_the_latency_source_at_the_tenant_percentile(self):
        asked = []

        def latency_at(tenant, percentile):
            asked.append((tenant, percentile))
            return {"fast": 0.004, "slow": 0.5}[tenant]

        config = SLOConfig.from_dict(
            {"tenants": {"fast": {"latency_percentile": 95.0}}}
        )
        engine = SLOEngine(latency_at, config=config, clock=FakeClock())
        engine.record("fast", ok=True, latency_s=0.004)
        engine.record("slow", ok=True, latency_s=0.5)
        tenants = engine.snapshot()["tenants"]
        assert sorted(asked) == [("fast", 95.0), ("slow", 99.0)]
        assert tenants["fast"]["latency"] == {
            "objective_ms": pytest.approx(4.0),
            "objective_met": True,
        }
        # 500 ms at p99 misses the default 250 ms objective.
        assert tenants["slow"]["latency"] == {
            "objective_ms": pytest.approx(500.0),
            "objective_met": False,
        }
