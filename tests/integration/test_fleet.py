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
from multiprocessing import shared_memory

import numpy as np
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


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


def _live_pools(app) -> dict:
    """Tenant name -> its live dispatcher (the pools the cap bounds)."""
    return {
        name: dispatcher
        for name, (_, dispatcher) in app._dispatchers.items()
        if dispatcher is not None
    }


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


class TestPoolResidencyCap:
    """``max_resident_banks`` is one LRU over live worker pools."""

    def test_cap_evicts_the_least_recently_used_pool(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        app = ServeApp(
            _registry(fleet_engine, ["a", "b", "c"]),
            num_processes=1,
            max_resident_banks=2,
            cache_size=0,
        )
        try:
            for name in ("a", "b"):
                app.predict({"features": queries.tolist(), "model": name})
            victim = _live_pools(app)["b"]
            victim_segment = victim._spec.bank_handle.segment
            victim_process = victim._workers[0].process
            # Touching "a" makes "b" the least recently used pool.
            app.predict({"features": queries.tolist(), "model": "a"})
            answer = app.predict({"features": queries.tolist(), "model": "c"})
            assert answer["labels"] == expected
            assert set(_live_pools(app)) == {"a", "c"}
            # Evicting closes the pool: its bank is unlinked, its worker reaped.
            assert not _segment_exists(victim_segment)
            assert not victim_process.is_alive()
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["evictions"] == 1
            assert fleet["cold_loads"] == 3
            assert fleet["resident_banks"] == 2
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_evicted_tenant_cold_loads_again_bit_identical(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:6]
        expected = fleet_engine.predict(queries).tolist()
        app = ServeApp(
            _registry(fleet_engine, ["a", "b"]),
            num_processes=2,
            max_resident_banks=1,
            cache_size=0,
        )
        try:
            for name in ("a", "b", "a", "b"):
                answer = app.predict({"features": queries.tolist(), "model": name})
                assert answer["labels"] == expected
                assert list(_live_pools(app)) == [name]
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["cold_loads"] == 4
            assert fleet["evictions"] == 3
            assert fleet["resident_banks"] == 1
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_zipf_stream_never_exceeds_the_cap(
        self, fleet_engine, small_problem, cap
    ):
        tenants = [f"t{i}" for i in range(5)]
        queries = small_problem["test_features"][:3]
        expected = fleet_engine.predict(queries).tolist()
        weights = 1.0 / np.arange(1, len(tenants) + 1) ** 1.1
        stream = np.random.default_rng(cap).choice(
            len(tenants), size=24, p=weights / weights.sum()
        )
        app = ServeApp(
            _registry(fleet_engine, tenants),
            num_processes=1,
            max_resident_banks=cap,
            cache_size=0,
        )
        try:
            for index in stream:
                answer = app.predict(
                    {"features": queries.tolist(), "model": tenants[index]}
                )
                assert answer["labels"] == expected
                assert len(_live_pools(app)) <= cap
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["resident_banks"] == len(_live_pools(app)) <= cap
            # With no hot-swaps and no failed loads, every cold load is
            # either still resident or was evicted exactly once.
            assert fleet["cold_loads"] == fleet["resident_banks"] + fleet["evictions"]
            assert fleet["cold_loads"] >= len(set(stream.tolist()))
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_fleet_block_reports_the_one_cap(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:2]
        app = ServeApp(
            _registry(fleet_engine, ["a"]),
            num_processes=1,
            max_resident_banks=3,
            cache_size=0,
        )
        try:
            app.predict({"features": queries.tolist(), "model": "a"})
            fleet = app.metrics_snapshot()["fleet"]
            assert set(fleet) == {
                "resident_banks",
                "dispatchers",
                "cold_loads",
                "evictions",
                "max_resident_banks",
                "breakers",
            }
            assert fleet["max_resident_banks"] == 3
            assert fleet["breakers"]["a"]["state"] == "closed"
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    def test_uncapped_app_keeps_every_pool(self, fleet_engine, small_problem):
        tenants = ["a", "b", "c"]
        queries = small_problem["test_features"][:2]
        app = ServeApp(
            _registry(fleet_engine, tenants),
            num_processes=1,
            cache_size=0,
        )
        try:
            for _ in range(2):
                for name in tenants:
                    app.predict({"features": queries.tolist(), "model": name})
            fleet = app.metrics_snapshot()["fleet"]
            assert fleet["max_resident_banks"] is None
            assert fleet["evictions"] == 0
            assert fleet["cold_loads"] == 3
            assert fleet["resident_banks"] == fleet["dispatchers"] == 3
        finally:
            app.begin_drain()
            app.drain(grace_seconds=10.0)

    @pytest.mark.parametrize("cap", [0, -2])
    def test_cap_must_be_positive(self, fleet_engine, cap):
        with pytest.raises(ValueError, match="max_resident_banks"):
            ServeApp(_registry(fleet_engine, ["a"]), max_resident_banks=cap)

    def test_hot_swap_releases_the_old_bank_without_an_eviction(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        registry = _registry(fleet_engine, ["a"])
        app = ServeApp(
            registry, num_processes=1, max_resident_banks=1, cache_size=0
        )
        try:
            app.predict({"features": queries.tolist(), "model": "a"})
            old_segment = _live_pools(app)["a"]._spec.bank_handle.segment
            registry.register("a", fleet_engine)  # promote version 2
            answer = app.predict({"features": queries.tolist(), "model": "a"})
            assert answer["labels"] == expected
            assert _live_pools(app)["a"].name == "a@v2"
            assert not _segment_exists(old_segment)
            fleet = app.metrics_snapshot()["fleet"]
            # A superseded version is closed, not evicted.
            assert fleet["evictions"] == 0
            assert fleet["cold_loads"] == 2
            assert fleet["resident_banks"] == 1
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
