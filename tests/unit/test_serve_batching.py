"""Unit tests for repro.serve.batching (the micro-batching scheduler)."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve.batching import BatchScheduler
from repro.serve.engine import PackedInferenceEngine
from repro.serve.metrics import ModelMetrics


@pytest.fixture(scope="module")
def engine(small_problem):
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return PackedInferenceEngine(pipeline, name="batch-test")


class _GatedEngine:
    """Wraps an engine; every top_k call blocks until ``release`` is set.

    The collector runs one batch at a time, so while the first batch waits
    here a test can queue exactly the requests it wants behind it.  Batch
    sizes are recorded, which makes coalescing exact instead of timed.
    """

    def __init__(self, engine):
        self._engine = engine
        self.batch_sizes = []
        self.release = threading.Event()
        self._lock = threading.Lock()

    def top_k(self, features, k):
        with self._lock:
            self.batch_sizes.append(features.shape[0])
        self.release.wait(timeout=30)
        return self._engine.top_k(features, k=k)


def _wait_for_queue(scheduler, depth, timeout=10.0):
    """Block until *depth* requests wait behind the in-flight batch."""
    deadline = time.monotonic() + timeout
    while scheduler.queue_depth < depth:
        assert time.monotonic() < deadline, f"queue stuck at {scheduler.queue_depth}"
        time.sleep(0.001)


def _hold_first_batch(scheduler, gated, row):
    """Submit *row* and return its future once the collector is running it."""
    blocker = scheduler.submit(row)
    deadline = time.monotonic() + 10.0
    while not gated.batch_sizes:
        assert time.monotonic() < deadline, "the first batch never started"
        time.sleep(0.001)
    return blocker


class TestCorrectness:
    def test_scheduled_predictions_match_engine(self, engine, small_problem):
        queries = small_problem["test_features"][:20]
        expected = engine.predict(queries)
        with BatchScheduler(engine, max_batch_size=8) as scheduler:
            got = [scheduler.predict(row) for row in queries]
        np.testing.assert_array_equal(got, expected)

    def test_top_k_future_payload(self, engine, small_problem):
        row = small_problem["test_features"][0]
        with BatchScheduler(engine, max_batch_size=4) as scheduler:
            labels, scores = scheduler.top_k(row, k=3)
        expected_labels, expected_scores = engine.top_k(row[None, :], k=3)
        np.testing.assert_array_equal(labels, expected_labels[0])
        np.testing.assert_array_equal(scores, expected_scores[0])

    def test_mixed_top_k_in_one_batch(self, engine, small_problem):
        queries = small_problem["test_features"][:6]
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=8) as scheduler:
            _hold_first_batch(scheduler, gated, queries[0])
            futures = [
                scheduler.submit(row, top_k=k)
                for row, k in zip(queries, [1, 2, 3, 1, 4, 2])
            ]
            gated.release.set()
            results = [future.result(timeout=10) for future in futures]
        assert gated.batch_sizes == [1, 6]
        expected, _ = engine.top_k(queries, k=4)
        for row, ((labels, scores), k) in enumerate(zip(results, [1, 2, 3, 1, 4, 2])):
            assert labels.shape == (k,)
            assert scores.shape == (k,)
            np.testing.assert_array_equal(labels, expected[row, :k])


class TestCoalescing:
    def test_concurrent_submits_coalesce(self, engine, small_problem):
        gated = _GatedEngine(engine)
        queries = small_problem["test_features"][:33]
        with BatchScheduler(gated, max_batch_size=16) as scheduler:
            blocker = _hold_first_batch(scheduler, gated, queries[0])
            futures = [blocker] + [scheduler.submit(row) for row in queries[1:]]
            gated.release.set()
            got = [future.result(timeout=10)[0][0] for future in futures]
        # Requests queued behind the in-flight batch form full batches.
        assert gated.batch_sizes == [1, 16, 16]
        np.testing.assert_array_equal(got, engine.predict(queries))

    def test_max_batch_size_respected(self, engine, small_problem):
        gated = _GatedEngine(engine)
        queries = small_problem["test_features"][:21]
        with BatchScheduler(gated, max_batch_size=4) as scheduler:
            _hold_first_batch(scheduler, gated, queries[0])
            futures = [scheduler.submit(row) for row in queries[1:]]
            gated.release.set()
            for future in futures:
                future.result(timeout=10)
        assert gated.batch_sizes == [1, 4, 4, 4, 4, 4]

    def test_lone_request_runs_at_once(self, engine, small_problem):
        # No timer: a request that finds the collector idle is a batch of
        # one, started as soon as it is queued.
        gated = _GatedEngine(engine)
        gated.release.set()
        with BatchScheduler(gated, max_batch_size=1024) as scheduler:
            started = time.monotonic()
            scheduler.predict(small_problem["test_features"][0], timeout=10)
            elapsed = time.monotonic() - started
        assert gated.batch_sizes == [1]
        assert elapsed < 1.0

    def test_concurrent_callers_under_thread_pool(self, engine, small_problem):
        queries = small_problem["test_features"][:40]
        expected = engine.predict(queries)
        metrics = ModelMetrics()
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=4, metrics=metrics) as scheduler:
            blocker = _hold_first_batch(scheduler, gated, queries[0])
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = pool.map(scheduler.predict, queries)
                # Each of the eight callers has one request queued behind
                # the held batch.
                _wait_for_queue(scheduler, 8)
                gated.release.set()
                got = list(results)
            blocker.result(timeout=10)
        np.testing.assert_array_equal(got, expected)
        assert gated.batch_sizes[:2] == [1, 4]
        distribution = metrics.batch_size_distribution
        assert sum(size * count for size, count in distribution.items()) == 41


class TestLifecycleAndErrors:
    def test_submit_after_stop_raises(self, engine, small_problem):
        scheduler = BatchScheduler(engine, max_batch_size=4)
        scheduler.stop()
        with pytest.raises(RuntimeError):
            scheduler.submit(small_problem["test_features"][0])

    def test_stop_is_idempotent(self, engine):
        scheduler = BatchScheduler(engine, max_batch_size=4)
        scheduler.stop()
        scheduler.stop()

    def test_engine_error_propagates_to_futures(self, small_problem):
        class Broken:
            def top_k(self, features, k):
                raise RuntimeError("engine exploded")

        metrics = ModelMetrics()
        scheduler = BatchScheduler(Broken(), max_batch_size=4, metrics=metrics)
        try:
            future = scheduler.submit(small_problem["test_features"][0])
            with pytest.raises(RuntimeError, match="engine exploded"):
                future.result(timeout=10)
            assert metrics.errors == 1
        finally:
            scheduler.stop()

    def test_malformed_request_does_not_poison_batch(self, engine, small_problem):
        # A wrong-width sample coalesced with valid ones must fail alone;
        # the valid requests in the same batch still get answers.
        good_rows = small_problem["test_features"][:3]
        bad_row = np.zeros(5)  # model expects 24 features
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=8) as scheduler:
            _hold_first_batch(scheduler, gated, good_rows[0])
            futures = [scheduler.submit(row) for row in good_rows]
            bad_future = scheduler.submit(bad_row)
            # All four wait behind the held batch, so they form the next one.
            assert scheduler.queue_depth == 4
            gated.release.set()
            results = [future.result(timeout=10) for future in futures]
            with pytest.raises(ValueError):
                bad_future.result(timeout=10)
        got = [labels[0] for labels, _ in results]
        np.testing.assert_array_equal(got, engine.predict(good_rows))

    def test_stop_never_leaves_hanging_futures(self, engine, small_problem):
        # Requests queued behind an in-flight batch when stop() lands either
        # run or fail — none may hang forever.
        class Slow:
            def top_k(self, features, k):
                time.sleep(0.05)
                return engine.top_k(features, k=k)

        scheduler = BatchScheduler(Slow(), max_batch_size=1)
        futures = [
            scheduler.submit(row) for row in small_problem["test_features"][:10]
        ]
        scheduler.stop()
        for future in futures:
            try:
                labels, _ = future.result(timeout=10)
                assert labels.shape == (1,)
            except RuntimeError as error:
                assert "stopped" in str(error)

    def test_stop_timeout_fails_requests_behind_a_stuck_batch(
        self, engine, small_problem
    ):
        rows = small_problem["test_features"][:3]
        gated = _GatedEngine(engine)
        scheduler = BatchScheduler(gated, max_batch_size=4)
        blocker = _hold_first_batch(scheduler, gated, rows[0])
        queued = [scheduler.submit(row) for row in rows[1:]]
        scheduler.stop(timeout=0.05)
        for future in queued:
            with pytest.raises(RuntimeError, match="stopped"):
                future.result(timeout=10)
        # The in-flight batch still answers, and the collector then exits.
        gated.release.set()
        assert blocker.result(timeout=10)[0].shape == (1,)
        scheduler._collector.join(timeout=10)
        assert not scheduler._collector.is_alive()
        assert gated.batch_sizes == [1]

    def test_cancelled_request_is_skipped(self, engine, small_problem):
        rows = small_problem["test_features"][:3]
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=4) as scheduler:
            _hold_first_batch(scheduler, gated, rows[0])
            cancelled = scheduler.submit(rows[1])
            kept = scheduler.submit(rows[2])
            assert cancelled.cancel()
            gated.release.set()
            labels, _ = kept.result(timeout=10)
        assert gated.batch_sizes == [1, 1]
        assert labels[0] == engine.predict(rows[2:3])[0]

    def test_collector_survives_a_failing_batch(self, engine, small_problem):
        class FailOnce(ModelMetrics):
            failed = False

            def record_stage(self, stage, seconds):
                if not self.failed:
                    self.failed = True
                    raise OSError("disk full")
                super().record_stage(stage, seconds)

        row = small_problem["test_features"][0]
        with BatchScheduler(engine, max_batch_size=4, metrics=FailOnce()) as scheduler:
            with pytest.raises(OSError, match="disk full"):
                scheduler.submit(row).result(timeout=10)
            assert scheduler.predict(row, timeout=10) == engine.predict(row[None, :])[0]

    def test_rejects_bad_arguments(self, engine, small_problem):
        with pytest.raises(ValueError):
            BatchScheduler(engine, max_batch_size=0)
        with BatchScheduler(engine, max_batch_size=2) as scheduler:
            with pytest.raises(ValueError):
                scheduler.submit(small_problem["test_features"][:2])  # 2-D
            with pytest.raises(ValueError):
                scheduler.submit(small_problem["test_features"][0], top_k=0)


class TestConcurrentSubmitters:
    def test_many_threads_all_get_their_own_answer(self, engine, small_problem):
        # The concurrency satellite: N submitter threads racing the collector
        # must each receive the prediction for *their* sample, with no swaps,
        # drops, or hangs — across enough rounds to shuffle batch formation.
        queries = small_problem["test_features"][:32]
        expected = engine.predict(queries)
        with BatchScheduler(engine, max_batch_size=8) as scheduler:
            def one_client(index):
                results = []
                for _ in range(5):
                    results.append(scheduler.predict(queries[index], timeout=30))
                return results

            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = {
                    index: pool.submit(one_client, index)
                    for index in range(len(queries))
                }
                for index, future in futures.items():
                    assert future.result() == [int(expected[index])] * 5

    def test_concurrent_mixed_top_k(self, engine, small_problem):
        queries = small_problem["test_features"][:16]
        labels_k3, _ = engine.top_k(queries, k=3)
        with BatchScheduler(engine, max_batch_size=4) as scheduler:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(scheduler.top_k, queries[index], 1 + index % 3)
                    for index in range(len(queries))
                ]
                for index, future in enumerate(futures):
                    labels, scores = future.result(timeout=30)
                    k = 1 + index % 3
                    assert labels.shape == (k,)
                    assert np.array_equal(labels, labels_k3[index, :k])


class TestOverloadAndDeadlines:
    def test_bounded_queue_sheds_when_full(self, engine, small_problem):
        from repro.serve.batching import SchedulerOverloadedError

        queries = small_problem["test_features"]
        stall = _GatedEngine(engine)
        scheduler = BatchScheduler(stall, max_batch_size=4, max_queue_depth=3)
        try:
            futures = []
            # Fill the (stalled) queue past its bound; the excess must shed
            # synchronously instead of growing the backlog without limit.
            with pytest.raises(SchedulerOverloadedError):
                for index in range(32):
                    futures.append(scheduler.submit(queries[index % len(queries)]))
            assert len(futures) >= 3
        finally:
            stall.release.set()
            scheduler.stop()

    def test_rejects_negative_queue_depth(self, engine):
        with pytest.raises(ValueError, match="max_queue_depth"):
            BatchScheduler(engine, max_queue_depth=-1)

    def test_expired_deadline_sheds_in_queue(self, engine, small_problem):
        from repro.cluster.errors import DeadlineExceededError

        row = small_problem["test_features"][0]
        stall = _GatedEngine(engine)
        scheduler = BatchScheduler(stall, max_batch_size=4)
        try:
            # The first submit occupies the batch loop; the second's deadline
            # expires while it waits behind the stalled batch.
            blocker = scheduler.submit(row)
            doomed = scheduler.submit(row, deadline=time.monotonic() + 0.05)
            time.sleep(0.2)
            stall.release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            assert blocker.result(timeout=30)
        finally:
            stall.release.set()
            scheduler.stop()

    def test_live_deadline_scores_normally(self, engine, small_problem):
        row = small_problem["test_features"][0]
        with BatchScheduler(engine, max_batch_size=4) as scheduler:
            labels, _ = scheduler.top_k(row, k=1, deadline=time.monotonic() + 30.0)
        expected, _ = engine.top_k(row[None, :], k=1)
        np.testing.assert_array_equal(labels, expected[0])
