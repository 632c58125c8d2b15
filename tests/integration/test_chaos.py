"""Integration chaos soak: fault-injected serving degrades gracefully.

The acceptance criterion for the robustness tier: with a seeded plan
injecting hangs, crashes, and dropped pipes, every failure the client sees
is a typed 429/503/504, availability stays at or above 95%, nothing leaks a
shared-memory segment, and the fault-free path stays bit-identical to
single-process scoring.  One short soak keeps the suite honest without
turning CI into a stress test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.faults import PRESETS, FaultPlan, FaultRule
from repro.hdc.encoders import RecordEncoder
from repro.loadgen import (
    ClosedLoop,
    InProcessTarget,
    RequestSampler,
    run_load_test,
    validate_resilience_report,
)
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp


def _shm_names() -> set:
    root = Path("/dev/shm")
    return {entry.name for entry in root.iterdir()} if root.is_dir() else set()


@pytest.fixture(scope="module")
def trained():
    sampler = RequestSampler(dataset="ucihar", profile="tiny", seed=0)
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(sampler.train_features, sampler.train_labels)
    return sampler, PackedInferenceEngine(pipeline, name="ucihar")


def test_chaos_soak_degrades_gracefully(trained):
    sampler, engine = trained
    before = _shm_names()
    registry = ModelRegistry()
    registry.register("ucihar", engine)
    app = ServeApp(
        registry,
        num_processes=3,
        cache_size=0,
        request_timeout=0.75,
        fault_plan=PRESETS["quick"],
    )
    try:
        report = run_load_test(
            InProcessTarget(app, deadline_ms=2000.0),
            sampler,
            ClosedLoop(concurrency=4),
            num_requests=100,
            warmup_requests=12,
            fault_plan=PRESETS["quick"],
        )
    finally:
        app.close()

    # No leaked segments once the app is closed — even after crashes.
    assert _shm_names() - before == set()

    # Graceful degradation: availability floor, no untyped failures, no
    # successful response outliving its deadline.
    validate_resilience_report(report, min_availability=0.95)

    # The soak must actually have injected and survived faults — a zero
    # fault count would make the assertions above vacuous.
    delta = report["server_metrics_delta"]
    survived = (
        delta.get("respawns", 0)
        + delta.get("hangs", 0)
        + delta.get("shard_retries", 0)
        + delta.get("worker_faults", 0)
    )
    assert survived > 0, delta


def test_fault_free_path_is_bit_identical_to_single_process(trained):
    sampler, engine = trained
    # A plan whose rules can never fire (worker index out of range): the
    # chaos machinery is armed but idle, and the cluster answer must stay
    # bit-identical to the single-process engine.
    inert = FaultPlan(
        rules=(FaultRule(kind="crash", at=1, workers=(9,)),), seed=0
    )
    queries = np.asarray(sampler.features[:32], dtype=np.float64)
    registry = ModelRegistry()
    registry.register("ucihar", engine)
    app = ServeApp(
        registry,
        num_processes=2,
        cache_size=0,
        fault_plan=inert,
    )
    try:
        response = app.predict({"features": queries.tolist()})
    finally:
        app.close()
    np.testing.assert_array_equal(response["labels"], engine.predict(queries))


def test_eviction_churn_is_bit_identical(trained):
    """Pool-cap evictions under worker faults change no answer.

    Three tenants share a one-pool residency cap, so every switch of tenant
    evicts the live pool (closing its workers and unlinking its bank) and
    cold-loads the next one, while each pool's workers inject error replies
    and slow replies from their second request on.  The answers must stay
    bit-identical to single-process scoring and nothing may leak.
    """
    sampler, engine = trained
    queries = np.asarray(sampler.features[:64], dtype=np.float64)
    expected = engine.predict(queries)
    before = _shm_names()
    registry = ModelRegistry()
    for name in ("a", "b", "c"):
        registry.register(name, engine)
    plan = FaultPlan(
        rules=(
            FaultRule(kind="error", every=3, after=2),
            FaultRule(kind="slow", every=3, after=3),
        ),
        seed=1,
        slow_seconds=0.01,
    )
    app = ServeApp(
        registry,
        num_processes=2,
        max_resident_banks=1,
        cache_size=0,
        fault_plan=plan,
    )
    try:
        # Eight visits (a b c a b c a b) of four two-row requests each, so
        # every pool's workers reach the faults before it is evicted.
        for visit, start in enumerate(range(0, len(queries), 8)):
            tenant = "abc"[visit % 3]
            for offset in range(start, start + 8, 2):
                chunk = queries[offset : offset + 2]
                answer = app.predict({"features": chunk.tolist(), "model": tenant})
                assert answer["labels"] == expected[offset : offset + 2].tolist()
        snapshot = app.metrics_snapshot()
        fleet = snapshot["fleet"]
        assert fleet["cold_loads"] == 8
        assert fleet["evictions"] == 7
        assert fleet["resident_banks"] == 1
        (live,) = snapshot["cluster"].values()
        assert live["failures"]["worker_faults"] > 0
    finally:
        app.begin_drain()
        app.drain(grace_seconds=10.0)
    assert _shm_names() - before == set()
