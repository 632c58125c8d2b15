"""Multi-tenant fleet integration: bank paging, admission, degradation.

These tests drive :class:`ServeApp` in-process the way the HTTP layer
would, with many model names ("tenants") sharing one worker-pool budget, and
assert the three fleet behaviours end to end: the residency cap pages banks
in and out without changing answers, per-tenant admission sheds with typed
429s, and a broken cold-load trips the circuit breaker into fast 503s.
"""

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
def fleet_engine(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="fleet")


def _registry(engine, tenants):
    registry = ModelRegistry(max_resident=max(4, len(tenants)))
    for name in tenants:
        registry.register(name, engine)
    return registry


class TestFleetPaging:
    def test_paging_across_tenants_matches_single_process(
        self, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(5)]
        queries = small_problem["test_features"][:6]
        expected = fleet_engine.predict(queries)
        app = ServeApp(
            _registry(fleet_engine, tenants),
            num_processes=2,
            max_resident_banks=2,
            cache_size=0,
        )
        try:
            for round_robin in range(2):
                for name in tenants:
                    answer = app.predict(
                        {"features": queries.tolist(), "model": name}
                    )
                    assert answer["labels"] == expected.tolist()
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["cold_loads"] >= 5
            assert fleet["evictions"] >= 3  # cap 2 forced paging
            assert fleet["resident_banks"] <= 2
            assert fleet["dispatchers"] <= 2
            assert fleet["max_resident_banks"] == 2
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_concurrent_tenants_all_answer_correctly(
        self, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(4)]
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        app = ServeApp(
            _registry(fleet_engine, tenants),
            num_processes=2,
            max_resident_banks=2,
            cache_size=0,
        )
        failures = []

        def hammer(name):
            try:
                for _ in range(6):
                    answer = app.predict(
                        {"features": queries.tolist(), "model": name}
                    )
                    if answer["labels"] != expected:
                        failures.append((name, "wrong answer"))
            except Exception as error:  # pragma: no cover - failure path
                failures.append((name, repr(error)))

        try:
            threads = [
                threading.Thread(target=hammer, args=(name,)) for name in tenants
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)


class TestTenantAdmission:
    def test_rate_limited_tenant_sheds_typed_429(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(rps=1.0, burst=1.0)
        app = ServeApp(
            _registry(fleet_engine, ["a", "b"]),
            tenant_quotas=quotas,
            cache_size=0,
        )
        try:
            app.predict({"features": queries.tolist(), "model": "a"})
            with pytest.raises(RequestError) as info:
                app.predict({"features": queries.tolist(), "model": "a"})
            assert info.value.status == 429
            assert info.value.code == "tenant_rate_limited"
            assert info.value.retry_after >= 1
            # Tenant "b" has an independent bucket and still answers.
            app.predict({"features": queries.tolist(), "model": "b"})
            tenancy = app.metrics_snapshot()["tenancy"]
            assert tenancy["tenants"]["a"]["rate_limited"] == 1
            assert tenancy["tenants"]["b"]["rate_limited"] == 0
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_quota_lease_is_released_after_each_request(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(max_concurrent=1)
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            tenant_quotas=quotas,
            cache_size=0,
        )
        try:
            for _ in range(5):  # a leaked lease would 429 on the second call
                app.predict({"features": queries.tolist(), "model": "a"})
            assert quotas.snapshot()["tenants"]["a"]["in_flight"] == 0
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)


class TestCircuitBreaker:
    def test_broken_cold_load_opens_breaker_and_fails_fast(
        self, fleet_engine, small_problem, monkeypatch
    ):
        import repro.serve.server as server_mod

        def exploding_dispatcher(*args, **kwargs):
            raise RuntimeError("injected cold-load failure")

        monkeypatch.setattr(server_mod, "ClusterDispatcher", exploding_dispatcher)
        queries = small_problem["test_features"][:1]
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            num_processes=2,
            cache_size=0,
            cold_load_retries=0,
            breaker_threshold=2,
            breaker_reset_seconds=60.0,
        )
        try:
            for _ in range(2):
                with pytest.raises(RequestError) as info:
                    app.predict({"features": queries.tolist(), "model": "a"})
                assert info.value.status == 503
                assert info.value.code == "model_unavailable"
            # The breaker is open now: the next request fails fast with a
            # Retry-After hint instead of re-attempting the broken load.
            with pytest.raises(RequestError) as info:
                app.predict({"features": queries.tolist(), "model": "a"})
            assert info.value.status == 503
            assert info.value.code == "model_unavailable"
            assert "breaker" in str(info.value)
            assert info.value.retry_after >= 1
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["breakers"]["a"]["state"] == "open"
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_breaker_closes_after_successful_probe(
        self, fleet_engine, small_problem, monkeypatch
    ):
        import repro.serve.server as server_mod

        real_dispatcher = server_mod.ClusterDispatcher
        fail = {"on": True}

        def flaky_dispatcher(*args, **kwargs):
            if fail["on"]:
                raise RuntimeError("injected cold-load failure")
            return real_dispatcher(*args, **kwargs)

        monkeypatch.setattr(server_mod, "ClusterDispatcher", flaky_dispatcher)
        queries = small_problem["test_features"][:2]
        expected = fleet_engine.predict(queries).tolist()
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            num_processes=2,
            cache_size=0,
            cold_load_retries=0,
            breaker_threshold=1,
            breaker_reset_seconds=0.05,
        )
        try:
            with pytest.raises(RequestError):
                app.predict({"features": queries.tolist(), "model": "a"})
            assert app.metrics_snapshot()["fleet"]["breakers"]["a"]["state"] in (
                "open",
                "half_open",
            )
            fail["on"] = False
            deadline = time.monotonic() + 5.0
            while True:  # wait out reset_seconds, then the probe succeeds
                try:
                    answer = app.predict(
                        {"features": queries.tolist(), "model": "a"}
                    )
                    break
                except RequestError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.02)
            assert answer["labels"] == expected
            assert app.metrics_snapshot()["fleet"]["breakers"]["a"]["state"] == (
                "closed"
            )
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)
