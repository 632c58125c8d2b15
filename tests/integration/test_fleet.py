"""Multi-tenant serving in one process: residency paging, admission, degradation.

These tests drive :class:`ServeApp` in-process the way the HTTP layer would,
with several model names ("tenants") backed by saved files, and assert the
fleet behaviours end to end: the registry's LRU (``max_resident``) pages
engines in and out without changing answers, per-tenant admission sheds with
typed 429s, and overload or a drain only ever fails requests with typed
statuses.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.datasets.registry import get_dataset
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas


def _fit(small_problem, seed):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=seed)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=seed))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return pipeline


@pytest.fixture(scope="module")
def fleet_paths(small_problem, tmp_path_factory):
    """Two different saved models: every tenant serves ``v1`` unless a test
    hot-swaps it to ``v2``."""
    directory = tmp_path_factory.mktemp("fleet")
    return {
        version: save_model(
            directory / f"{version}.npz", _fit(small_problem, seed), strategy_name="baseline"
        )
        for version, seed in (("v1", 5), ("v2", 6))
    }


@pytest.fixture(scope="module")
def fleet_engine(fleet_paths):
    """The offline reference every served answer is compared against."""
    return PackedInferenceEngine.from_file(fleet_paths["v1"], name="reference")


def _registry(path, tenants, cap):
    registry = ModelRegistry(max_resident=cap)
    for name in tenants:
        registry.register(name, path)
    return registry


def _resident(registry) -> set:
    return {row["name"] for row in registry.list_models() if row["resident"]}


def _shutdown(app):
    app.begin_drain()
    app.drain(grace_seconds=10.0)


class TestFleetPaging:
    def test_paging_across_tenants_matches_offline(
        self, fleet_paths, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(5)]
        queries = small_problem["test_features"][:6]
        expected = fleet_engine.predict(queries).tolist()
        registry = _registry(fleet_paths["v1"], tenants, cap=2)
        app = ServeApp(registry)
        try:
            for _ in range(2):
                for name in tenants:
                    answer = app.predict({"features": queries.tolist(), "model": name})
                    assert answer["labels"] == expected
                    resident = _resident(registry)
                    assert name in resident
                    assert len(resident) <= 2
        finally:
            _shutdown(app)

    def test_concurrent_tenants_all_answer_correctly(
        self, fleet_paths, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(4)]
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        registry = _registry(fleet_paths["v1"], tenants, cap=2)
        app = ServeApp(registry)
        failures = []

        def hammer(name):
            try:
                for round_index in range(6):
                    if round_index % 2:
                        labels = [
                            app.predict({"features": row.tolist(), "model": name})[
                                "labels"
                            ][0]
                            for row in queries
                        ]
                    else:
                        labels = app.predict(
                            {"features": queries.tolist(), "model": name}
                        )["labels"]
                    if labels != expected:
                        failures.append((name, "wrong answer"))
            except Exception as error:  # pragma: no cover - failure path
                failures.append((name, repr(error)))

        try:
            threads = [threading.Thread(target=hammer, args=(name,)) for name in tenants]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert failures == []
            assert len(_resident(registry)) <= 2
        finally:
            _shutdown(app)


class TestResidencyCap:
    """``ModelRegistry(max_resident=)`` is the one residency cap."""

    def test_cap_evicts_the_least_recently_used_model(
        self, fleet_paths, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        registry = _registry(fleet_paths["v1"], ["a", "b", "c"], cap=2)
        app = ServeApp(registry)
        try:
            for name in ("a", "b"):
                app.predict({"features": queries.tolist(), "model": name})
            # Touching "a" makes "b" the least recently used model.
            app.predict({"features": queries.tolist(), "model": "a"})
            answer = app.predict({"features": queries.tolist(), "model": "c"})
            assert answer["labels"] == expected
            assert _resident(registry) == {"a", "c"}
        finally:
            _shutdown(app)

    @pytest.mark.parametrize("cap", [0, -2])
    def test_cap_must_be_positive(self, cap):
        with pytest.raises(ValueError, match="max_resident"):
            ModelRegistry(max_resident=cap)

    def test_evicted_tenant_reloads_bit_identical(
        self, fleet_paths, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:6]
        expected_labels, expected_scores = fleet_engine.top_k(queries, k=2)
        registry = _registry(fleet_paths["v1"], ["a", "b"], cap=1)
        app = ServeApp(registry)
        try:
            for name in ("a", "b", "a", "b"):
                answer = app.predict(
                    {"features": queries.tolist(), "model": name, "top_k": 2}
                )
                assert answer["top_k_labels"] == expected_labels.tolist()
                assert answer["top_k_scores"] == expected_scores.astype(float).tolist()
                assert _resident(registry) == {name}
        finally:
            _shutdown(app)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_zipf_stream_never_exceeds_the_cap(
        self, fleet_paths, fleet_engine, small_problem, cap
    ):
        tenants = [f"t{i}" for i in range(5)]
        queries = small_problem["test_features"][:3]
        expected = fleet_engine.predict(queries).tolist()
        weights = 1.0 / np.arange(1, len(tenants) + 1) ** 1.1
        stream = np.random.default_rng(cap).choice(
            len(tenants), size=24, p=weights / weights.sum()
        )
        registry = _registry(fleet_paths["v1"], tenants, cap=cap)
        app = ServeApp(registry)
        try:
            for index in stream:
                answer = app.predict(
                    {"features": queries.tolist(), "model": tenants[index]}
                )
                assert answer["labels"] == expected
                resident = _resident(registry)
                assert tenants[index] in resident
                assert len(resident) <= cap
        finally:
            _shutdown(app)

    def test_generous_cap_keeps_every_model(
        self, fleet_paths, small_problem
    ):
        tenants = ["a", "b", "c"]
        queries = small_problem["test_features"][:2]
        registry = _registry(fleet_paths["v1"], tenants, cap=8)
        app = ServeApp(registry)
        try:
            for _ in range(2):
                for name in tenants:
                    app.predict({"features": queries.tolist(), "model": name})
            assert _resident(registry) == set(tenants)
        finally:
            _shutdown(app)

    def test_in_memory_tenants_sit_outside_the_cap(
        self, fleet_paths, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.predict(queries).tolist()
        registry = _registry(fleet_paths["v1"], ["a", "b"], cap=1)
        registry.register("pinned", fleet_engine)
        app = ServeApp(registry)
        try:
            for name in ("a", "pinned", "b", "pinned", "a"):
                answer = app.predict({"features": queries.tolist(), "model": name})
                assert answer["labels"] == expected
                resident = _resident(registry)
                assert "pinned" in resident
                assert len(resident - {"pinned"}) == 1
        finally:
            _shutdown(app)

    def test_hot_swap_serves_the_promoted_version(self, fleet_paths, small_problem):
        queries = small_problem["test_features"][:4]
        engines = {
            version: PackedInferenceEngine.from_file(path)
            for version, path in fleet_paths.items()
        }
        expected = {
            version: engine.top_k(queries, k=2)[1].astype(float).tolist()
            for version, engine in engines.items()
        }
        assert expected["v1"] != expected["v2"]
        registry = _registry(fleet_paths["v1"], ["a"], cap=1)
        app = ServeApp(registry)
        payload = {"features": queries.tolist(), "model": "a", "top_k": 2}
        try:
            assert app.predict(payload)["top_k_scores"] == expected["v1"]
            registry.register("a", fleet_paths["v2"])  # promotes version 2
            assert app.predict(payload)["top_k_scores"] == expected["v2"]
            registry.promote("a", 1)
            assert app.predict(payload)["top_k_scores"] == expected["v1"]
        finally:
            _shutdown(app)


    def test_hot_swaps_under_load_never_fail_or_mix_versions(
        self, fleet_paths, small_problem
    ):
        queries = small_problem["test_features"][:3]
        answers_by_version = {
            version: PackedInferenceEngine.from_file(path)
            .top_k(queries, k=2)[1]
            .astype(float)
            .tolist()
            for version, path in fleet_paths.items()
        }
        registry = _registry(fleet_paths["v1"], ["a"], cap=2)
        registry.register("a", fleet_paths["v2"], promote=False)
        app = ServeApp(registry)
        payload = {"features": queries.tolist(), "model": "a", "top_k": 2}
        seen, errors = [], []
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    seen.append(app.predict(payload)["top_k_scores"])
                except Exception as error:  # pragma: no cover - failure path
                    errors.append(repr(error))

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for swap in range(20):
                registry.promote("a", 2 if swap % 2 == 0 else 1)
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            _shutdown(app)
        assert errors == []
        assert seen
        # Each answer is wholly one version's: a batch never straddles a swap.
        assert all(answer in answers_by_version.values() for answer in seen)

class TestTenantAdmission:
    def test_rate_limited_tenant_sheds_typed_429(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(rps=1.0, burst=1.0)
        registry = ModelRegistry()
        for name in ("a", "b"):
            registry.register(name, fleet_engine)
        app = ServeApp(registry, tenant_quotas=quotas)
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
            assert app.metrics_snapshot()["models"]["a"]["errors"] == 1
        finally:
            _shutdown(app)

    def test_quota_lease_is_released_after_each_request(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(max_concurrent=1)
        registry = ModelRegistry()
        registry.register("a", fleet_engine)
        app = ServeApp(registry, tenant_quotas=quotas)
        try:
            for _ in range(5):  # a leaked lease would 429 on the second call
                app.predict({"features": queries.tolist(), "model": "a"})
            # A failing request must hand its lease back too.
            with pytest.raises(RequestError):
                app.predict({"features": [[1.0, 2.0]], "model": "a"})
            app.predict({"features": queries.tolist(), "model": "a"})
            assert quotas.snapshot()["tenants"]["a"]["in_flight"] == 0
        finally:
            _shutdown(app)

    def test_full_concurrency_quota_sheds_typed_429(self, fleet_engine, small_problem):
        queries = small_problem["test_features"][:1]
        quotas = TenantQuotas(max_concurrent=1)
        registry = ModelRegistry()
        for name in ("a", "b"):
            registry.register(name, fleet_engine)
        app = ServeApp(registry, tenant_quotas=quotas)
        try:
            held = quotas.admit("a")  # another request of "a" is in flight
            with pytest.raises(RequestError) as info:
                app.predict({"features": queries.tolist(), "model": "a"})
            assert info.value.status == 429
            assert info.value.code == "tenant_quota_exceeded"
            assert info.value.retry_after >= 1
            app.predict({"features": queries.tolist(), "model": "b"})
            held.release()
            app.predict({"features": queries.tolist(), "model": "a"})
            assert quotas.snapshot()["tenants"]["a"]["quota_exceeded"] == 1
        finally:
            _shutdown(app)


class TestDegradation:
    @pytest.fixture(scope="class")
    def ucihar(self):
        data = get_dataset("ucihar", "tiny")
        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
        pipeline.fit(data.train_features, data.train_labels)
        return data.test_features, PackedInferenceEngine(pipeline, name="ucihar")

    def test_overload_fails_only_with_typed_statuses(self, ucihar):
        rows, engine = ucihar
        registry = ModelRegistry()
        registry.register("ucihar", engine)
        app = ServeApp(
            registry,
            tenant_quotas=TenantQuotas(rps=50.0, burst=5.0, max_concurrent=2),
        )
        clients, per_client, deadline_ms = 8, 15, 2000.0
        answered, typed, untyped, late = [], [], [], []

        def client(index):
            for step in range(per_client):
                row = rows[(index * per_client + step) % len(rows)]
                started = time.perf_counter()
                try:
                    app.predict({"features": row.tolist(), "deadline_ms": deadline_ms})
                except RequestError as error:
                    typed.append((error.status, error.code))
                    continue
                except Exception as error:  # an untyped failure
                    untyped.append(repr(error))
                    continue
                elapsed_ms = (time.perf_counter() - started) * 1e3
                answered.append(elapsed_ms)
                if elapsed_ms > deadline_ms + 100.0:
                    late.append(elapsed_ms)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            _shutdown(app)
        assert len(answered) + len(typed) + len(untyped) == clients * per_client
        # The load is far beyond the tenant's 50 rps, so both outcomes occur.
        assert answered and typed
        assert untyped == []
        # No answer outlived its deadline: a late one must be a 504.
        assert late == []
        assert {status for status, _ in typed} <= {429, 504}
        assert {code for _, code in typed} <= {
            "tenant_rate_limited",
            "tenant_quota_exceeded",
            "deadline_exceeded",
        }

    def test_eviction_churn_is_bit_identical(
        self, fleet_paths, fleet_engine, small_problem
    ):
        tenants = ["a", "b", "c"]
        queries = small_problem["test_features"][:5]
        expected = fleet_engine.predict(queries).tolist()
        registry = _registry(fleet_paths["v1"], tenants, cap=1)
        app = ServeApp(registry)
        answers = {name: [] for name in tenants}
        errors = []

        def client(name):
            try:
                for _ in range(5):
                    answers[name].append(
                        app.predict({"features": queries.tolist(), "model": name})[
                            "labels"
                        ]
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(repr(error))

        try:
            threads = [threading.Thread(target=client, args=(name,)) for name in tenants]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            _shutdown(app)
        assert errors == []
        for name in tenants:
            assert answers[name] == [expected] * 5
        assert len(_resident(registry)) == 1

    def test_drain_under_load_answers_or_refuses_with_503(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:8]
        expected = fleet_engine.predict(queries).tolist()
        registry = ModelRegistry()
        registry.register("a", fleet_engine)
        app = ServeApp(registry)
        outcomes = []
        lock = threading.Lock()
        started = threading.Event()

        def client():
            # Keep sending until the drain turns this client away.
            give_up = time.monotonic() + 30.0
            while time.monotonic() < give_up:
                try:
                    labels = [
                        app.predict({"features": row.tolist()})["labels"][0]
                        for row in queries
                    ]
                    outcome = "ok" if labels == expected else "wrong"
                except RequestError as error:
                    outcome = (error.status, error.code)
                except RuntimeError as error:  # pragma: no cover - failure path
                    outcome = repr(error)
                with lock:
                    outcomes.append(outcome)
                started.set()
                if outcome != "ok":
                    return

        threads = [threading.Thread(target=client) for _ in range(3)]
        for thread in threads:
            thread.start()
        assert started.wait(timeout=30)
        app.drain(grace_seconds=10.0)
        for thread in threads:
            thread.join(timeout=30)
        assert set(outcomes) <= {"ok", (503, "draining")}
        assert "ok" in outcomes
        assert outcomes.count((503, "draining")) == len(threads)
        assert app.readyz()[0] == 503

    def test_drain_waits_for_the_request_in_flight(self, fleet_engine, small_problem):
        row = small_problem["test_features"][0]
        registry = ModelRegistry()
        registry.register("a", fleet_engine)
        app = ServeApp(registry)
        release = threading.Event()
        entered = threading.Event()

        class _Held:
            def top_k(self, features, k):
                entered.set()
                release.wait(timeout=30)
                return fleet_engine.top_k(features, k=k)

        app.engine_for = lambda name: _Held()
        result = {}

        def client():
            result["answer"] = app.predict({"features": row.tolist()})

        thread = threading.Thread(target=client)
        thread.start()
        assert entered.wait(timeout=30)
        drainer = threading.Thread(target=app.drain, kwargs={"grace_seconds": 30.0})
        drainer.start()
        time.sleep(0.05)
        assert drainer.is_alive()  # still waiting on the admitted request
        release.set()
        drainer.join(timeout=30)
        thread.join(timeout=30)
        assert not drainer.is_alive()
        assert result["answer"]["labels"] == fleet_engine.predict(row[None, :]).tolist()
