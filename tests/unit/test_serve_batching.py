"""Unit tests for repro.serve.batching (the caller-runs micro-batching scheduler)."""

import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.obs.trace import MemorySink, SpanContext, Tracer
from repro.serve.batching import BatchScheduler, DeadlineExceededError
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

    One batch runs at a time, so while the first batch waits here a test can
    queue exactly the requests it wants behind it.  Batch sizes, and the
    name of the thread that ran each batch, are recorded, which makes
    coalescing and the hand-off of the lead exact instead of timed.
    """

    def __init__(self, engine):
        self._engine = engine
        self.num_features = engine.num_features
        self.batch_sizes = []
        self.threads = []
        self.release = threading.Event()
        self._lock = threading.Lock()

    def top_k(self, features, k):
        with self._lock:
            self.batch_sizes.append(features.shape[0])
            self.threads.append(threading.current_thread().name)
        self.release.wait(timeout=30)
        return self._engine.top_k(features, k=k)


def _call(scheduler, row, name=None, k=1, **kwargs) -> Future:
    """Call ``scheduler.top_k(row, k, ...)`` on a thread of its own; the
    future resolves to what that call returns or raises."""
    future = Future()

    def run():
        try:
            future.set_result(scheduler.top_k(row, k, **kwargs))
        except BaseException as error:  # handed to the test through the future
            future.set_exception(error)

    threading.Thread(target=run, name=name, daemon=True).start()
    return future


def _wait_for_queue(scheduler, depth, timeout=10.0):
    """Block until *depth* requests wait behind the in-flight batch."""
    deadline = time.monotonic() + timeout
    while scheduler.queue_depth < depth:
        assert time.monotonic() < deadline, f"queue stuck at {scheduler.queue_depth}"
        time.sleep(0.001)


def _hold_first_batch(scheduler, gated, row, **kwargs) -> Future:
    """Call with *row* and return its future once its batch is in the engine."""
    blocker = _call(scheduler, row, name="blocker", **kwargs)
    deadline = time.monotonic() + 10.0
    while not gated.batch_sizes:
        assert time.monotonic() < deadline, "the first batch never started"
        time.sleep(0.001)
    return blocker


def _queue_behind(scheduler, rows, **kwargs):
    """Call once per row, each on its own thread, and return the futures
    once every call waits in the queue (in row order)."""
    queued = scheduler.queue_depth
    futures = []
    for row in rows:
        futures.append(_call(scheduler, row, **kwargs))
        _wait_for_queue(scheduler, queued + len(futures))
    return futures


class TestCorrectness:
    def test_scheduled_predictions_match_engine(self, engine, small_problem):
        queries = small_problem["test_features"][:20]
        expected = engine.predict(queries)
        with BatchScheduler(engine, max_batch_size=8) as scheduler:
            got = [scheduler.top_k(row, k=1)[0][0] for row in queries]
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
        ks = [1, 2, 3, 1, 4, 2]
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=8) as scheduler:
            _hold_first_batch(scheduler, gated, queries[0])
            futures = [
                _call(scheduler, row, k=k) for row, k in zip(queries, ks)
            ]
            _wait_for_queue(scheduler, len(futures))
            gated.release.set()
            results = [future.result(timeout=10) for future in futures]
        assert gated.batch_sizes == [1, 6]
        expected, _ = engine.top_k(queries, k=4)
        for row, ((labels, scores), k) in enumerate(zip(results, ks)):
            assert labels.shape == (k,)
            assert scores.shape == (k,)
            np.testing.assert_array_equal(labels, expected[row, :k])


class TestCallerRuns:
    def test_lone_request_scores_on_the_calling_thread(self, engine, small_problem):
        scored_on = []

        class Recording:
            def top_k(self, features, k):
                scored_on.append(threading.get_ident())
                return engine.top_k(features, k=k)

        before = set(threading.enumerate())
        scheduler = BatchScheduler(Recording(), max_batch_size=8)
        try:
            labels, _ = scheduler.top_k(small_problem["test_features"][0], k=1)
            # The scheduler owns no thread: constructing it and serving a
            # request started none.
            assert set(threading.enumerate()) == before
        finally:
            scheduler.stop()
        assert scored_on == [threading.get_ident()]
        assert labels[0] == engine.predict(small_problem["test_features"][:1])[0]

    def test_the_oldest_queued_caller_leads_the_next_batch(
        self, engine, small_problem
    ):
        rows = small_problem["test_features"][:4]
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=2) as scheduler:
            blocker = _hold_first_batch(scheduler, gated, rows[0])
            futures = []
            for index, row in enumerate(rows[1:]):
                futures.append(_call(scheduler, row, name=f"queued-{index}"))
                _wait_for_queue(scheduler, index + 1)
            gated.release.set()
            got = [future.result(timeout=10)[0][0] for future in [blocker] + futures]
        # Each batch runs on the thread of the oldest caller queued when
        # the previous one ended, and takes the next oldest with it.
        assert gated.batch_sizes == [1, 2, 1]
        assert gated.threads == ["blocker", "queued-0", "queued-2"]
        np.testing.assert_array_equal(got, engine.predict(rows))


class TestCoalescing:
    def test_concurrent_callers_coalesce(self, engine, small_problem):
        gated = _GatedEngine(engine)
        queries = small_problem["test_features"][:33]
        with BatchScheduler(gated, max_batch_size=16) as scheduler:
            blocker = _hold_first_batch(scheduler, gated, queries[0])
            futures = [blocker] + _queue_behind(scheduler, queries[1:])
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
            futures = _queue_behind(scheduler, queries[1:])
            gated.release.set()
            for future in futures:
                future.result(timeout=10)
        assert gated.batch_sizes == [1, 4, 4, 4, 4, 4]

    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 17])
    def test_coalesced_rows_come_back_in_submission_order(
        self, engine, small_problem, rows
    ):
        """Every caller of a coalesced batch gets its own row's answer,
        whatever the batch size (odd sizes included)."""
        queries = small_problem["test_features"][1 : rows + 1]
        expected_labels, expected_scores = engine.top_k(queries, k=2)
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=64) as scheduler:
            _hold_first_batch(scheduler, gated, small_problem["test_features"][0])
            futures = _queue_behind(scheduler, queries, k=2)
            gated.release.set()
            results = [future.result(timeout=10) for future in futures]
        assert gated.batch_sizes == [1, rows]
        for row, (labels, scores) in enumerate(results):
            np.testing.assert_array_equal(labels, expected_labels[row])
            np.testing.assert_array_equal(scores, expected_scores[row])

    def test_lone_request_runs_at_once(self, engine, small_problem):
        # No timer: a request that finds no batch running is a batch of
        # one, started as soon as it arrives.
        gated = _GatedEngine(engine)
        gated.release.set()
        with BatchScheduler(gated, max_batch_size=1024) as scheduler:
            started = time.monotonic()
            scheduler.top_k(small_problem["test_features"][0], k=1, timeout=10)
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
                results = pool.map(
                    lambda row: scheduler.top_k(row, k=1)[0][0], queries
                )
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
        # The scheduler counts batches and the rows they scored; requests
        # are counted once each by their caller, never per batch here.
        snapshot = metrics.snapshot()
        assert (snapshot["samples"], snapshot["requests"]) == (41, 0)


class TestLifecycleAndErrors:
    def test_top_k_after_stop_raises(self, engine, small_problem):
        scheduler = BatchScheduler(engine, max_batch_size=4)
        scheduler.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            scheduler.top_k(small_problem["test_features"][0])

    def test_stop_is_idempotent(self, engine):
        scheduler = BatchScheduler(engine, max_batch_size=4)
        scheduler.stop()
        scheduler.stop()

    def test_engine_error_propagates_to_the_caller(self, small_problem):
        class Broken:
            def top_k(self, features, k):
                raise RuntimeError("engine exploded")

        with BatchScheduler(Broken(), max_batch_size=4) as scheduler:
            with pytest.raises(RuntimeError, match="engine exploded"):
                scheduler.top_k(small_problem["test_features"][0], timeout=10)

    def test_malformed_request_does_not_poison_batch(self, engine, small_problem):
        # A wrong-width sample coalesced with valid ones must fail alone;
        # the valid requests in the same batch still get answers.
        good_rows = small_problem["test_features"][:3]
        bad_row = np.zeros(5)  # model expects 24 features
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=8) as scheduler:
            _hold_first_batch(scheduler, gated, good_rows[0])
            futures = _queue_behind(scheduler, good_rows)
            (bad_future,) = _queue_behind(scheduler, [bad_row])
            # All four wait behind the held batch, so they form the next one.
            assert scheduler.queue_depth == 4
            gated.release.set()
            results = [future.result(timeout=10) for future in futures]
            with pytest.raises(ValueError, match="must have 24 columns, got 5"):
                bad_future.result(timeout=10)
        got = [labels[0] for labels, _ in results]
        np.testing.assert_array_equal(got, engine.predict(good_rows))
        # The bad row fails before the stack; the good rows run as one batch.
        assert gated.batch_sizes == [1, 3]

    def test_a_misfit_row_gets_no_batch_span(self, engine, small_problem):
        # The batch span nests under the first request it scores; the
        # wrong-width row before it only waited in the queue.
        rows = small_problem["test_features"][:2]
        sink = MemorySink()
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=8, tracer=Tracer(sink)) as scheduler:
            _hold_first_batch(scheduler, gated, rows[0])
            (bad,) = _queue_behind(scheduler, [np.zeros(5)], trace=SpanContext("bad", "b"))
            (good,) = _queue_behind(scheduler, rows[1:], trace=SpanContext("good", "g"))
            gated.release.set()
            with pytest.raises(ValueError):
                bad.result(timeout=10)
            good.result(timeout=10)
        spans = sorted((r["trace"], r["name"], r["parent"]) for r in sink.records)
        assert spans == [
            ("bad", "queue_wait", "b"),
            ("good", "batch_execute", "g"),
            ("good", "queue_wait", "g"),
        ]
        assert gated.batch_sizes == [1, 1]

    def test_an_engine_error_fails_its_batch_in_one_call(self, engine, small_problem):
        class FailsAfterTheFirstBatch:
            num_features = engine.num_features
            calls = 0

            def top_k(self, features, k):
                self.calls += 1
                if self.calls > 1:
                    raise RuntimeError("engine exploded")
                return engine.top_k(features, k=k)

        rows = small_problem["test_features"][:4]
        gated = _GatedEngine(FailsAfterTheFirstBatch())
        with BatchScheduler(gated, max_batch_size=8) as scheduler:
            blocker = _hold_first_batch(scheduler, gated, rows[0])
            futures = _queue_behind(scheduler, rows[1:])
            gated.release.set()
            blocker.result(timeout=10)
            for future in futures:
                with pytest.raises(RuntimeError, match="engine exploded"):
                    future.result(timeout=10)
        # The error is the batch's: no row is scored again on its own.
        assert gated.batch_sizes == [1, 3]

    def test_stop_never_leaves_hanging_callers(self, engine, small_problem):
        # Callers queued behind an in-flight batch when stop() lands either
        # run or fail — none may hang forever.
        class Slow:
            def top_k(self, features, k):
                time.sleep(0.05)
                return engine.top_k(features, k=k)

        scheduler = BatchScheduler(Slow(), max_batch_size=1)
        futures = [_call(scheduler, row) for row in small_problem["test_features"][:10]]
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
        queued = _queue_behind(scheduler, rows[1:])
        started = time.monotonic()
        scheduler.stop(timeout=0.05)
        assert time.monotonic() - started < 5.0
        for future in queued:
            with pytest.raises(RuntimeError, match="stopped"):
                future.result(timeout=10)
        assert scheduler.queue_depth == 0
        # The in-flight batch still answers; the failed requests never ran.
        gated.release.set()
        assert blocker.result(timeout=10)[0].shape == (1,)
        assert gated.batch_sizes == [1]

    def test_timed_out_request_is_never_scored(self, engine, small_problem):
        rows = small_problem["test_features"][:3]
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=4) as scheduler:
            _hold_first_batch(scheduler, gated, rows[0])
            (doomed,) = _queue_behind(scheduler, [rows[1]], timeout=0.2)
            (kept,) = _queue_behind(scheduler, [rows[2]])
            with pytest.raises(TimeoutError):
                doomed.result(timeout=10)
            # The lapsed request left the queue; the held batch still runs.
            assert scheduler.queue_depth == 1
            gated.release.set()
            labels, _ = kept.result(timeout=10)
        assert gated.batch_sizes == [1, 1]
        assert labels[0] == engine.predict(rows[2:3])[0]

    def test_a_batch_failing_outside_the_engine_fails_only_its_callers(
        self, engine, small_problem
    ):
        class FailSecondBatch(ModelMetrics):
            batches = 0

            def record_batch(self, size):
                self.batches += 1
                if self.batches == 2:
                    raise OSError("disk full")
                super().record_batch(size)

        rows = small_problem["test_features"][:4]
        gated = _GatedEngine(engine)
        metrics = FailSecondBatch()
        with BatchScheduler(gated, max_batch_size=2, metrics=metrics) as scheduler:
            blocker = _hold_first_batch(scheduler, gated, rows[0])
            failing = _queue_behind(scheduler, rows[1:3])
            (served,) = _queue_behind(scheduler, rows[3:])
            gated.release.set()
            for future in failing:
                with pytest.raises(OSError, match="disk full"):
                    future.result(timeout=10)
            # The failed batch still passed the lead on: the caller queued
            # behind it is served, and so is the next one.
            assert served.result(timeout=10)[0][0] == engine.predict(rows[3:])[0]
            assert blocker.result(timeout=10)[0][0] == engine.predict(rows[:1])[0]
            labels, _ = scheduler.top_k(rows[0], k=1, timeout=10)
        assert gated.batch_sizes == [1, 2, 1, 1]
        assert labels[0] == engine.predict(rows[:1])[0]

    def test_rejects_bad_arguments(self, engine, small_problem):
        with pytest.raises(ValueError):
            BatchScheduler(engine, max_batch_size=0)
        with BatchScheduler(engine, max_batch_size=2) as scheduler:
            with pytest.raises(ValueError):
                scheduler.top_k(small_problem["test_features"][:2])  # 2-D
            with pytest.raises(ValueError):
                scheduler.top_k(small_problem["test_features"][0], k=0)


class TestConcurrentCallers:
    def test_many_threads_all_get_their_own_answer(self, engine, small_problem):
        # N caller threads racing for the lead must each receive the
        # prediction for *their* sample, with no swaps, drops, or hangs —
        # across enough rounds to shuffle batch formation.
        queries = small_problem["test_features"][:32]
        expected = engine.predict(queries)
        with BatchScheduler(engine, max_batch_size=8) as scheduler:
            def one_client(index):
                return [
                    int(scheduler.top_k(queries[index], k=1, timeout=30)[0][0])
                    for _ in range(5)
                ]

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

    def test_hand_off_survives_a_short_switch_interval(self, engine, small_problem):
        # A lost wake-up in the hand-off of the lead leaves callers queued
        # with no leader: they would hang.  Many more threads than cores,
        # switching as often as the interpreter allows, some giving up
        # while queued, must all finish, and every row the engine scored
        # must be one a caller asked for.
        queries = small_problem["test_features"][:24]
        expected = engine.predict(queries)
        metrics = ModelMetrics()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with BatchScheduler(engine, max_batch_size=4, metrics=metrics) as scheduler:
                def one_client(index):
                    answered = timed_out = 0
                    for round_ in range(20):
                        timeout = 1e-4 if (index + round_) % 5 == 0 else 30
                        try:
                            labels, _ = scheduler.top_k(
                                queries[index], k=1, timeout=timeout
                            )
                        except TimeoutError:
                            timed_out += 1
                            continue
                        assert labels[0] == expected[index]
                        answered += 1
                    return answered, timed_out

                with ThreadPoolExecutor(max_workers=len(queries)) as pool:
                    outcomes = list(pool.map(one_client, range(len(queries))))
                assert scheduler.queue_depth == 0
                # The lead was not lost: a fresh caller is served at once.
                labels, _ = scheduler.top_k(queries[0], k=1, timeout=10)
        finally:
            sys.setswitchinterval(previous)
        assert labels[0] == expected[0]
        answered = sum(outcome[0] for outcome in outcomes)
        calls = sum(outcome[0] + outcome[1] for outcome in outcomes)
        assert calls == len(queries) * 20
        # A caller that timed out while queued was never scored; one that
        # timed out inside a batch was.
        assert answered + 1 <= metrics.snapshot()["samples"] <= calls + 1


class TestDeadlines:
    def test_expired_deadline_sheds_in_queue(self, engine, small_problem):
        row = small_problem["test_features"][0]
        stall = _GatedEngine(engine)
        scheduler = BatchScheduler(stall, max_batch_size=4)
        try:
            # The first caller occupies the lead; the second's deadline
            # expires while it waits behind the stalled batch.
            blocker = _hold_first_batch(scheduler, stall, row)
            (doomed,) = _queue_behind(
                scheduler, [row], deadline=time.monotonic() + 0.05
            )
            time.sleep(0.2)
            stall.release.set()
            with pytest.raises(DeadlineExceededError):
                doomed.result(timeout=30)
            assert blocker.result(timeout=30)
        finally:
            stall.release.set()
            scheduler.stop()

    def test_expired_deadline_never_reaches_the_engine(self, engine, small_problem):
        gated = _GatedEngine(engine)
        gated.release.set()
        metrics = ModelMetrics()
        with BatchScheduler(gated, max_batch_size=4, metrics=metrics) as scheduler:
            with pytest.raises(DeadlineExceededError, match="in queue"):
                scheduler.top_k(
                    small_problem["test_features"][0],
                    deadline=time.monotonic() - 1.0,
                    timeout=10,
                )
        assert gated.batch_sizes == []
        assert metrics.batch_size_distribution == {}

    def test_deadline_passing_mid_batch_fails_only_that_request(
        self, engine, small_problem
    ):
        queries = small_problem["test_features"][:2]
        gated = _GatedEngine(engine)
        with BatchScheduler(gated, max_batch_size=4) as scheduler:
            # The doomed request is the batch the engine is holding; its
            # deadline passes while the engine call is still running.
            expires = time.monotonic() + 0.5
            doomed = _hold_first_batch(scheduler, gated, queries[0], deadline=expires)
            (patient,) = _queue_behind(scheduler, [queries[1]])
            time.sleep(max(0.0, expires - time.monotonic()) + 0.05)
            gated.release.set()
            with pytest.raises(DeadlineExceededError, match="mid-batch"):
                doomed.result(timeout=10)
            labels, _ = patient.result(timeout=10)
        np.testing.assert_array_equal(labels, engine.predict(queries[1:2]))

    def test_live_deadline_scores_normally(self, engine, small_problem):
        row = small_problem["test_features"][0]
        with BatchScheduler(engine, max_batch_size=4) as scheduler:
            labels, _ = scheduler.top_k(row, k=1, deadline=time.monotonic() + 30.0)
        expected, _ = engine.top_k(row[None, :], k=1)
        np.testing.assert_array_equal(labels, expected[0])
