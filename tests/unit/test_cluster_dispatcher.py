"""Unit tests for ClusterDispatcher: parity, crash recovery, cleanup, faults."""

from __future__ import annotations

import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.cluster import (
    ClusterDispatcher,
    DeadlineExceededError,
    SharedModelStore,
    WorkerCrashedError,
)
from repro.cluster.affinity import available_cpus, build_pin_map
from repro.faults import FaultPlan, FaultRule
from repro.hdc.encoders import RecordEncoder
from repro.serve.engine import PackedInferenceEngine


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


@pytest.fixture(scope="module")
def served(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=5)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=5))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    engine = PackedInferenceEngine(pipeline, name="disp")
    return engine, small_problem["test_features"]


@pytest.fixture(scope="module")
def ensemble_served(small_problem):
    encoder = RecordEncoder(dimension=192, num_levels=8, tie_break="positive", seed=9)
    pipeline = HDCPipeline(
        encoder, MultiModelHDC(models_per_class=4, iterations=1, seed=9)
    )
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    engine = PackedInferenceEngine(pipeline, name="disp-ens")
    return engine, small_problem["test_features"][:32]


@pytest.fixture()
def dispatcher(served):
    engine, _ = served
    with ClusterDispatcher(engine, num_workers=2) as dispatcher:
        yield dispatcher


class TestDispatch:
    def test_rejects_dense_engines(self, small_problem):
        encoder = RecordEncoder(dimension=128, num_levels=4, seed=1)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=1))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        engine = PackedInferenceEngine(pipeline, name="dense", mode="dense")
        with pytest.raises(ValueError, match="packed"):
            ClusterDispatcher(engine, num_workers=1)

    def test_rejects_bad_worker_count(self, served):
        engine, _ = served
        with pytest.raises(ValueError, match="num_workers"):
            ClusterDispatcher(engine, num_workers=0)

    def test_top_k_and_scores_match_single_process(self, dispatcher, served):
        engine, queries = served
        labels, scores = dispatcher.top_k(queries, k=3)
        expected_labels, expected_scores = engine.top_k(queries, k=3)
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(scores, expected_scores)
        assert np.array_equal(
            dispatcher.decision_scores(queries), engine.decision_scores(queries)
        )
        assert np.array_equal(dispatcher.predict(queries), engine.predict(queries))

    def test_single_sample_round_robin(self, dispatcher, served):
        engine, queries = served
        for row in queries[:5]:
            labels, _ = dispatcher.top_k(row, k=1)
            assert labels.shape == (1, 1)
            assert labels[0, 0] == engine.predict(row[None, :])[0]

    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_ensemble_max_over_bank_merge(self, ensemble_served, num_workers):
        engine, queries = ensemble_served
        with ClusterDispatcher(engine, num_workers=num_workers) as d:
            assert np.array_equal(
                d.decision_scores(queries), engine.decision_scores(queries)
            )
            labels, scores = d.top_k(queries, k=2)
            expected_labels, expected_scores = engine.top_k(queries, k=2)
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(scores, expected_scores)

    def test_worker_value_error_propagates(self, dispatcher, served):
        engine, queries = served
        with pytest.raises(ValueError, match="columns"):
            dispatcher.top_k(np.zeros((4, 3)), k=1)
        # The pool survives a request-level error and keeps scoring exactly.
        assert dispatcher.ping()
        labels, _ = dispatcher.top_k(queries, k=1)
        assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
        assert dispatcher.respawns == 0

    def test_ships_packed_words_not_float_rows(self, served):
        engine, queries = served
        batch = np.ascontiguousarray(queries[:16])
        packed_words = engine._encode_packed(engine._validate(batch)).words
        with ClusterDispatcher(engine, num_workers=1) as d:
            assert d.info()["ships_packed_queries"] is True
            connection = d._workers[0].connection
            frames = []
            send = connection.send
            connection.send = lambda frame: (frames.append(frame), send(frame))[1]
            d.decision_scores(batch)
            ((header, arrays),) = frames
            assert header["kind"] == "packed"
            # The request frame carries the packed words (32x smaller than
            # float64 rows at D=256/F=24), not the float rows.
            assert np.array_equal(arrays[0], packed_words)
            assert arrays[0].nbytes < batch.nbytes

    def test_ping_reports_distinct_pids(self, dispatcher):
        pids = dispatcher.ping()
        assert len(pids) == 2
        assert len(set(pids)) == 2


class TestParity:
    """Sharding over the pipe never changes an answer, whatever the split."""

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("num_workers", [1, 2, 3])
    def test_top_k_scores_and_predict_match_single_process(
        self, served, num_workers, k
    ):
        engine, queries = served
        expected_labels, expected_scores = engine.top_k(queries, k=k)
        with ClusterDispatcher(engine, num_workers=num_workers) as d:
            labels, scores = d.top_k(queries, k=k)
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(scores, expected_scores)
            assert np.array_equal(
                d.decision_scores(queries), engine.decision_scores(queries)
            )
            assert np.array_equal(d.predict(queries), engine.predict(queries))

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 17])
    def test_uneven_and_tiny_batches_merge_in_row_order(self, served, rows):
        # Fewer rows than workers, one row per worker, and splits that leave
        # the shards unequal: the merge must restore the caller's row order.
        engine, queries = served
        batch = queries[:rows]
        with ClusterDispatcher(engine, num_workers=3) as d:
            for _ in range(2):  # a second call starts at another worker
                labels, scores = d.top_k(batch, k=2)
                expected_labels, expected_scores = engine.top_k(batch, k=2)
                assert np.array_equal(labels, expected_labels)
                assert np.array_equal(scores, expected_scores)
                assert np.array_equal(
                    d.decision_scores(batch), engine.decision_scores(batch)
                )

    @pytest.mark.parametrize("kind", ["packed", "dense"])
    def test_value_error_propagates_and_pool_survives(self, served, kind):
        # "packed" validates parent-side before the scatter; "dense" ships
        # the float rows, so the worker raises and replies with an error
        # frame.  Either way the caller sees the ValueError and the pool
        # keeps answering exactly, without a respawn.
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as d:
            d._ship_packed = kind == "packed"
            with pytest.raises(ValueError, match="columns"):
                d.top_k(np.zeros((4, 3)), k=1)
            labels, scores = d.top_k(queries, k=2)
            expected_labels, expected_scores = engine.top_k(queries, k=2)
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(scores, expected_scores)
            assert len(d.ping()) == 2
            assert d.respawns == 0
            assert d.shard_retries == 0


class TestCrashRecovery:
    @pytest.mark.parametrize("victim", [0, 1])
    def test_mid_batch_crash_is_masked_by_shard_retry(self, served, victim):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as dispatcher:
            dispatcher.poison_worker(victim)
            # The poisoned worker dies mid-batch; the dispatcher retires the
            # slot, respawns it, and retries the shard once — so the request
            # itself succeeds, bit-identical, with the crash visible only in
            # the counters.
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.respawns == 1
            assert dispatcher.shard_retries == 1
            # The respawned pool keeps answering exactly.
            assert np.array_equal(
                dispatcher.decision_scores(queries), engine.decision_scores(queries)
            )

    def test_dead_worker_found_at_send_is_respawned_transparently(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as dispatcher:
            dispatcher._workers[0].process.kill()
            dispatcher._workers[0].process.join(timeout=5.0)
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.respawns == 1

    def test_sigkill_while_worker_holds_the_shard_is_masked(self, served):
        engine, queries = served
        # Worker 0 sits on its second shard (a 5 s slow reply) and is
        # SIGKILLed once the shard is on its pipe, just as the dispatcher
        # starts waiting for the reply: the reply never comes, the dead
        # process is noticed, and the shard is retried once on the respawned
        # worker (whose request count restarts below the slow rule) long
        # before the slow reply would have arrived.
        plan = FaultPlan(
            rules=(FaultRule(kind="slow", at=2, workers=(0,)),),
            seed=0,
            slow_seconds=5.0,
        )
        with ClusterDispatcher(engine, num_workers=2, fault_plan=plan) as dispatcher:
            dispatcher.top_k(queries[:4], k=1)  # count 1 on both workers
            victim = dispatcher._workers[0]
            victim_pid = victim.process.pid
            receive = dispatcher._receive

            def kill_then_receive(worker, deadline=None):
                if worker is victim and victim.process.is_alive():
                    os.kill(victim_pid, signal.SIGKILL)
                return receive(worker, deadline)

            dispatcher._receive = kill_then_receive
            started = time.monotonic()
            labels, scores = dispatcher.top_k(queries, k=3)
            elapsed = time.monotonic() - started
            expected_labels, expected_scores = engine.top_k(queries, k=3)
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(scores, expected_scores)
            assert dispatcher.respawns == 1
            assert dispatcher.shard_retries == 1
            assert elapsed < 4.0
            assert victim_pid not in dispatcher.ping()


class TestCleanup:
    def test_close_stops_workers_and_unlinks_segment(self, served):
        engine, queries = served
        dispatcher = ClusterDispatcher(engine, num_workers=2)
        segment = dispatcher._spec.bank_handle.segment
        processes = [worker.process for worker in dispatcher._workers]
        dispatcher.top_k(queries[:4], k=1)
        dispatcher.close()
        assert not _segment_exists(segment)
        for process in processes:
            assert not process.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            dispatcher.top_k(queries[:4], k=1)
        dispatcher.close()  # idempotent

    def test_shared_store_refcounting_across_dispatchers(self, served):
        engine, queries = served
        with SharedModelStore() as store:
            first = ClusterDispatcher(engine, num_workers=1, store=store, name="m@v1")
            second = ClusterDispatcher(engine, num_workers=1, store=store, name="m@v1")
            segment = first._spec.bank_handle.segment
            assert second._spec.bank_handle.segment == segment
            first.close()
            assert _segment_exists(segment)
            labels, _ = second.top_k(queries[:4], k=1)
            assert labels.shape == (4, 1)
            second.close()
            assert not _segment_exists(segment)

    def test_info_shape(self, dispatcher):
        info = dispatcher.info()
        assert info["num_workers"] == 2
        assert info["shared_bank_bytes"] > 0
        assert len(info["worker_pids"]) == 2

    def test_info_keys_are_the_pool_surface(self, dispatcher):
        # One pickled frame over one pipe per worker: there is no transport
        # to name and no per-transport byte counters to report.
        assert set(dispatcher.info()) == {
            "name",
            "num_workers",
            "respawns",
            "request_timeout",
            "failures",
            "fault_plan",
            "start_method",
            "ships_packed_queries",
            "cpu_count",
            "pin_map",
            "shared_bank_bytes",
            "worker_pids",
            "uptime_seconds",
            "workers",
        }


class TestAffinity:
    def test_info_records_cpu_count_and_pin_map(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2, cpu_affinity="auto") as d:
            d.top_k(queries[:8], k=1)
            info = d.info()
            assert info["cpu_count"] == (os.cpu_count() or 1)
            assert len(info["pin_map"]) == 2

    def test_affinity_helpers(self):
        cpus = available_cpus()
        assert cpus and all(isinstance(cpu, int) for cpu in cpus)
        pin_map = build_pin_map(4, cpus=[0, 1])
        assert pin_map == {0: 0, 1: 1, 2: 0, 3: 1}
        assert build_pin_map(2, cpus=[]) == {}


def _plan(*rules: FaultRule, hang_seconds: float = 30.0) -> FaultPlan:
    return FaultPlan(rules=tuple(rules), seed=0, hang_seconds=hang_seconds)


class TestFaultInjection:
    """Injected worker faults must be masked by retry-once or surface typed."""

    def test_hang_watchdog_retires_and_masks(self, served):
        engine, queries = served
        # Worker 0 hangs on its second request; the watchdog must detect the
        # still-alive-but-silent worker at request_timeout, terminate it, and
        # retry the shard on the respawned pool — the regression test for the
        # hung-worker leak where `is_alive()` kept returning the same stuck
        # process forever.
        plan = _plan(FaultRule(kind="hang", at=2, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=0.75, fault_plan=plan
        ) as dispatcher:
            dispatcher.top_k(queries[:4], k=1)  # count 1: healthy warm call
            started = time.monotonic()
            labels, _ = dispatcher.top_k(queries, k=1)
            elapsed = time.monotonic() - started
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.hangs == 1
            assert dispatcher.respawns == 1
            assert dispatcher.shard_retries == 1
            assert elapsed < 10.0  # watchdog, not the 30 s hang
            # The respawned pool is healthy (count restarted, at=2 re-arms
            # only on the second request of the new life — warm past it).
            assert dispatcher.ping()

    def test_repeated_hang_surfaces_worker_crashed(self, served):
        engine, queries = served
        # at=1 re-fires on every respawned life: the retry hangs too, so the
        # dispatcher must give up with a typed error instead of looping.
        plan = _plan(FaultRule(kind="hang", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=0.5, fault_plan=plan
        ) as dispatcher:
            with pytest.raises(WorkerCrashedError):
                dispatcher.top_k(queries, k=1)
            assert dispatcher.hangs == 2

    def test_error_reply_is_retried_without_respawn(self, served):
        engine, queries = served
        plan = _plan(FaultRule(kind="error", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.worker_faults == 1
            assert dispatcher.shard_retries == 1
            assert dispatcher.respawns == 0

    def test_slow_reply_within_timeout_is_not_retried(self, served):
        engine, queries = served
        plan = FaultPlan(
            rules=(FaultRule(kind="slow", at=1, workers=(1,)),),
            seed=0,
            slow_seconds=0.2,
        )
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=5.0, fault_plan=plan
        ) as dispatcher:
            started = time.monotonic()
            labels, _ = dispatcher.top_k(queries, k=1)
            assert time.monotonic() - started >= 0.2
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            # Slow is not sick: no watchdog, no retry, no respawn.
            assert dispatcher.hangs == 0
            assert dispatcher.shard_retries == 0
            assert dispatcher.respawns == 0

    def test_injected_crash_is_masked(self, served):
        engine, queries = served
        plan = _plan(FaultRule(kind="crash", at=2, workers=(1,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            dispatcher.top_k(queries[:4], k=1)
            labels, scores = dispatcher.top_k(queries, k=3)
            expected_labels, expected_scores = engine.top_k(queries, k=3)
            assert np.array_equal(labels, expected_labels)
            assert np.array_equal(scores, expected_scores)
            assert dispatcher.respawns == 1
            assert dispatcher.shard_retries == 1

    def test_dropped_pipe_is_masked(self, served):
        engine, queries = served
        plan = _plan(FaultRule(kind="drop", at=2, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            dispatcher.top_k(queries[:4], k=1)
            labels, _ = dispatcher.top_k(queries, k=1)
            assert np.array_equal(labels, engine.top_k(queries, k=1)[0])
            assert dispatcher.respawns == 1

    def test_expired_deadline_is_rejected_before_dispatch(self, served):
        engine, queries = served
        with ClusterDispatcher(engine, num_workers=2) as dispatcher:
            with pytest.raises(DeadlineExceededError):
                dispatcher.top_k(queries, k=1, deadline=time.monotonic() - 0.01)
            # Request-level rejection; the pool is untouched.
            assert dispatcher.ping()

    def test_deadline_abandons_hung_worker_early(self, served):
        engine, queries = served
        # The deadline (0.5 s) is tighter than the watchdog (5 s): the
        # dispatcher must answer 504-typed at the deadline instead of waiting
        # out the full request_timeout.
        plan = _plan(FaultRule(kind="hang", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, request_timeout=5.0, fault_plan=plan
        ) as dispatcher:
            started = time.monotonic()
            with pytest.raises(DeadlineExceededError):
                dispatcher.top_k(queries, k=1, deadline=time.monotonic() + 0.5)
            assert time.monotonic() - started < 2.0

    def test_info_reports_fault_plan_and_failure_counters(self, served):
        engine, _ = served
        plan = _plan(FaultRule(kind="error", at=1, workers=(0,)))
        with ClusterDispatcher(
            engine, num_workers=2, fault_plan=plan
        ) as dispatcher:
            info = dispatcher.info()
            assert info["fault_plan"]["rules"][0]["kind"] == "error"
            assert set(info["failures"]) == {
                "hangs",
                "shard_retries",
                "worker_faults",
                "deadline_skips",
            }
            assert info["request_timeout"] == dispatcher.request_timeout


class TestHotSwapRace:
    def test_closed_dispatcher_maps_to_retryable_503(self, served):
        # Simulates the promote race: a request resolved a dispatcher that a
        # concurrent hot-swap closed before the batch ran.  The serving layer
        # must answer 503 (retry lands on the new version), not a 500.
        from repro.serve import ModelRegistry, ServeApp
        from repro.serve.server import RequestError

        engine, queries = served
        registry = ModelRegistry()
        registry.register("m", engine)
        app = ServeApp(registry, num_processes=1, cache_size=0)
        try:
            app.predict({"features": queries[:4].tolist()})  # builds the pool
            app._dispatchers["m"][1].close()
            with pytest.raises(RequestError) as excinfo:
                app.predict({"features": queries[:4].tolist()})
            assert excinfo.value.status == 503
            assert "swapped" in str(excinfo.value)
            # The promote completing (new version registered) restores service.
            registry.register("m", engine)
            response = app.predict({"features": queries[:4].tolist()})
            assert response["labels"] == engine.predict(queries[:4]).tolist()
        finally:
            app.close()
