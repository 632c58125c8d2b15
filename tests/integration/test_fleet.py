"""Multi-tenant serving in one process: answers, admission, degradation.

These tests drive :class:`ServeApp` in-process the way the HTTP layer would,
with several model names ("tenants") backed by saved files, and assert the
fleet behaviours end to end: every tenant, each loaded once at start, answers
bit-identically to the offline engine, sequentially and from concurrent
threads; per-tenant admission sheds with typed 429s; and overload or a drain
only ever fails requests with typed statuses.
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
from repro.io import load_model, save_model
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError
from repro.serve.tenancy import TenantQuotas


def _fit(small_problem, seed):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=seed)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=seed))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return pipeline


@pytest.fixture(scope="module")
def fleet_path(small_problem, tmp_path_factory):
    """The saved model every tenant serves."""
    return save_model(
        tmp_path_factory.mktemp("fleet") / "model.npz",
        _fit(small_problem, 5),
        strategy_name="baseline",
    )


@pytest.fixture(scope="module")
def fleet_engine(fleet_path):
    """The offline reference every served answer is compared against."""
    return PackedInferenceEngine.from_file(fleet_path, name="reference")


def _registry(path, tenants):
    registry = ModelRegistry()
    for name in tenants:
        registry.register(name, path)
    return registry


def _count_loads(monkeypatch):
    """The names ``PackedInferenceEngine.from_file`` loads from now on, in order."""
    loads = []
    load = PackedInferenceEngine.from_file

    def counting(cls, path, name=None, **kwargs):
        loads.append(name)
        return load(path, name=name, **kwargs)

    monkeypatch.setattr(PackedInferenceEngine, "from_file", classmethod(counting))
    return loads


class TestFleetPaging:
    def test_paging_across_tenants_matches_offline(
        self, fleet_path, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(5)]
        queries = small_problem["test_features"][:6]
        expected = fleet_engine.top_k(queries, 1)[0][:, 0].tolist()
        app = ServeApp(_registry(fleet_path, tenants))
        try:
            for _ in range(2):
                for name in tenants:
                    answer = app.predict({"features": queries.tolist(), "model": name})
                    assert answer["labels"] == expected
        finally:
            app.begin_drain()

    def test_concurrent_tenants_all_answer_correctly(
        self, fleet_path, fleet_engine, small_problem
    ):
        tenants = [f"t{i}" for i in range(4)]
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.top_k(queries, 1)[0][:, 0].tolist()
        app = ServeApp(_registry(fleet_path, tenants))
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
        finally:
            app.begin_drain()


class TestFixedFleet:
    """Every tenant is loaded once, when it is registered, and stays loaded."""

    def test_more_than_four_models_all_stay_loaded(
        self, fleet_path, fleet_engine, small_problem, monkeypatch
    ):
        loads = _count_loads(monkeypatch)
        tenants = [f"t{i}" for i in range(6)]
        registry = _registry(fleet_path, tenants)
        assert loads == tenants
        engines = {name: registry.get(name) for name in tenants}
        queries = small_problem["test_features"][:4]
        expected = fleet_engine.top_k(queries, 1)[0][:, 0].tolist()
        app = ServeApp(registry)
        try:
            for _ in range(3):
                for name in tenants:
                    answer = app.predict({"features": queries.tolist(), "model": name})
                    assert answer["labels"] == expected
                    row = app.predict({"features": queries[0].tolist(), "model": name})
                    assert row["labels"] == expected[:1]
        finally:
            app.begin_drain()
        assert loads == tenants
        assert all(registry.get(name) is engines[name] for name in tenants)

    def test_zipf_stream_is_answered_without_a_load(
        self, fleet_path, fleet_engine, small_problem, monkeypatch
    ):
        tenants = [f"t{i}" for i in range(5)]
        registry = _registry(fleet_path, tenants)
        loads = _count_loads(monkeypatch)
        queries = small_problem["test_features"][:3]
        expected_labels, expected_scores = fleet_engine.top_k(queries, k=2)
        weights = 1.0 / np.arange(1, len(tenants) + 1) ** 1.1
        stream = np.random.default_rng(0).choice(
            len(tenants), size=30, p=weights / weights.sum()
        )
        app = ServeApp(registry)
        try:
            for step, index in enumerate(stream):
                # Alternate client batches with single rows.
                rows = queries if step % 2 else queries[step % 3]
                answer = app.predict(
                    {"features": rows.tolist(), "model": tenants[index], "top_k": 2}
                )
                want = slice(None) if step % 2 else slice(step % 3, step % 3 + 1)
                assert answer["top_k_labels"] == expected_labels[want].tolist()
                assert (
                    answer["top_k_scores"]
                    == expected_scores[want].astype(float).tolist()
                )
        finally:
            app.begin_drain()
        assert loads == []

    def test_file_engine_and_pipeline_tenants_answer_alike(
        self, fleet_path, fleet_engine, small_problem
    ):
        registry = ModelRegistry()
        registry.register("file", fleet_path)
        registry.register("engine", fleet_engine)
        registry.register("pipeline", load_model(fleet_path))
        paths = {row["name"]: row["path"] for row in registry.list_models()}
        assert paths == {"engine": None, "file": str(fleet_path), "pipeline": None}
        queries = small_problem["test_features"][:5]
        expected_labels, expected_scores = fleet_engine.top_k(queries, k=2)
        app = ServeApp(registry)
        try:
            for name in ("file", "engine", "pipeline"):
                answer = app.predict(
                    {"features": queries.tolist(), "model": name, "top_k": 2}
                )
                assert answer["top_k_labels"] == expected_labels.tolist()
                assert answer["top_k_scores"] == expected_scores.astype(float).tolist()
                labels = [
                    app.predict({"features": row.tolist(), "model": name})["labels"][0]
                    for row in queries
                ]
                assert labels == expected_labels[:, 0].tolist()
        finally:
            app.begin_drain()


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
            app.begin_drain()


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
        app = ServeApp(registry, tenant_quotas=TenantQuotas(rps=50.0, burst=5.0))
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
            app.begin_drain()
        assert len(answered) + len(typed) + len(untyped) == clients * per_client
        # The load is far beyond the tenant's 50 rps, so both outcomes occur.
        assert answered and typed
        assert untyped == []
        # No answer outlived its deadline: a late one must be a 504.
        assert late == []
        assert {status for status, _ in typed} <= {429, 504}
        assert {code for _, code in typed} <= {"tenant_rate_limited", "deadline_exceeded"}

    def test_drain_under_load_answers_or_refuses_with_503(
        self, fleet_engine, small_problem
    ):
        queries = small_problem["test_features"][:8]
        expected = fleet_engine.top_k(queries, 1)[0][:, 0].tolist()
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
        app.begin_drain()
        for thread in threads:
            thread.join(timeout=30)
        assert set(outcomes) <= {"ok", (503, "draining")}
        assert "ok" in outcomes
        assert outcomes.count((503, "draining")) == len(threads)
        assert app.readyz()[0] == 503
