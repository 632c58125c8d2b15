"""Unit tests for repro.serve.metrics."""

import threading

import numpy as np
import pytest

from repro.serve.metrics import LatencyHistogram, MetricsRegistry, ModelMetrics

#: The default bucket grid, the ``le`` values ``GET /metrics`` exposes.
DEFAULT_BOUNDS = (
    5e-05, 0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02,
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0,
)


def _cumulative(histogram):
    return {bucket["le"]: bucket["count"] for bucket in histogram.snapshot()["buckets"]}


class TestLatencyHistogram:
    def test_empty_histogram(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["sum_seconds"] == 0.0
        assert {bucket["count"] for bucket in snapshot["buckets"]} == {0}

    def test_buckets_bracket_observations(self):
        histogram = LatencyHistogram()
        for _ in range(49):
            histogram.record(0.001)  # 1 ms, on a bound: le is inclusive
        histogram.record(1.0)  # one outlier
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 50
        cumulative = {bucket["le"]: bucket["count"] for bucket in snapshot["buckets"]}
        assert (cumulative[0.0005], cumulative[0.001], cumulative[0.5]) == (0, 49, 49)
        assert (cumulative[1.0], cumulative["+Inf"]) == (50, 50)

    def test_sum_is_exact(self):
        histogram = LatencyHistogram()
        histogram.record(0.010)
        histogram.record(0.030)
        assert histogram.snapshot()["sum_seconds"] == pytest.approx(0.040)

    def test_overflow_lands_in_the_inf_bucket(self):
        histogram = LatencyHistogram(bounds=[0.001])
        histogram.record(5.0)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == [
            {"le": 0.001, "count": 0},
            {"le": "+Inf", "count": 1},
        ]

    def test_default_grid_is_one_two_five_from_50us_to_20s(self):
        buckets = LatencyHistogram().snapshot()["buckets"]
        assert [bucket["le"] for bucket in buckets] == [*DEFAULT_BOUNDS, "+Inf"]

    @pytest.mark.parametrize("index", range(len(DEFAULT_BOUNDS)), ids=str)
    def test_an_observation_on_a_bound_counts_in_that_bucket(self, index):
        # ``le`` is inclusive: a latency equal to a bound is at most it, and
        # the next float above the bound belongs to the next bucket.
        bound = DEFAULT_BOUNDS[index]
        histogram = LatencyHistogram()
        histogram.record(bound)
        histogram.record(np.nextafter(bound, np.inf))
        cumulative = _cumulative(histogram)
        if index > 0:
            assert cumulative[DEFAULT_BOUNDS[index - 1]] == 0
        assert cumulative[bound] == 1
        upper = DEFAULT_BOUNDS[index + 1] if index + 1 < len(DEFAULT_BOUNDS) else "+Inf"
        assert cumulative[upper] == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=[])
        with pytest.raises(ValueError):
            LatencyHistogram(bounds=[2.0, 1.0])

    def test_concurrent_recording(self):
        histogram = LatencyHistogram()

        def record_many():
            for _ in range(500):
                histogram.record(0.001)

        threads = [threading.Thread(target=record_many) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.snapshot()["count"] == 2000


class TestExemplars:
    def _exemplars(self, histogram):
        return {
            bucket["le"]: bucket["exemplar"]["trace_id"]
            for bucket in histogram.snapshot()["buckets"]
            if "exemplar" in bucket
        }

    def test_the_latest_traced_observation_holds_its_bucket(self):
        histogram = LatencyHistogram(bounds=[0.01])
        histogram.record(0.002, trace_id="a" * 16)
        histogram.record(0.004, trace_id="b" * 16)
        (bucket, _) = histogram.snapshot()["buckets"]
        assert bucket["exemplar"]["trace_id"] == "b" * 16
        assert bucket["exemplar"]["value"] == 0.004

    def test_an_untraced_observation_keeps_the_exemplar(self):
        histogram = LatencyHistogram(bounds=[0.01])
        histogram.record(0.002, trace_id="a" * 16)
        histogram.record(0.003)
        histogram.record(0.004, trace_id="")
        assert self._exemplars(histogram) == {0.01: "a" * 16}

    def test_each_exemplar_stays_in_the_bucket_of_its_value(self):
        histogram = LatencyHistogram(bounds=[0.001, 0.01, 0.1])
        histogram.record(0.0005, trace_id="a" * 16)
        histogram.record(0.05)
        histogram.record(3.0, trace_id="c" * 16)
        assert self._exemplars(histogram) == {0.001: "a" * 16, "+Inf": "c" * 16}

    def test_snapshot_exemplars_are_copies(self):
        histogram = LatencyHistogram(bounds=[0.01])
        histogram.record(0.002, trace_id="a" * 16)
        histogram.snapshot()["buckets"][0]["exemplar"]["trace_id"] = "mutated"
        assert self._exemplars(histogram) == {0.01: "a" * 16}


class TestModelMetrics:
    @pytest.mark.parametrize(
        "status, counted",
        [
            (200, (1, 0, 0, 1)),
            (400, (0, 1, 0, 0)),
            (404, (0, 1, 0, 0)),
            (413, (0, 1, 0, 0)),
            (429, (0, 1, 0, 0)),
            (500, (0, 1, 0, 0)),
            (503, (0, 1, 0, 0)),
            (504, (0, 1, 1, 0)),
        ],
    )
    def test_each_status_lands_in_its_counters(self, status, counted):
        # (requests, errors, deadline_exceeded, latency count): only an
        # answer is a latency observation, and only a 504 a deadline miss.
        metrics = ModelMetrics()
        metrics.record_outcome(status, 0.002, trace_id="ab" * 8)
        snapshot = metrics.snapshot()
        assert (
            snapshot["requests"],
            snapshot["errors"],
            snapshot["deadline_exceeded"],
            snapshot["latency"]["count"],
        ) == counted
        assert snapshot["samples"] == 0

    def test_stage_histograms_appear_on_first_use(self):
        metrics = ModelMetrics()
        assert metrics.snapshot()["stages"] == {}
        metrics.record_stage("queue_wait", 0.0002)
        metrics.record_stage("queue_wait", 0.0004)
        snapshot = metrics.snapshot()
        assert list(snapshot["stages"]) == ["queue_wait"]
        assert snapshot["stages"]["queue_wait"]["count"] == 2
        assert snapshot["stages"]["queue_wait"]["sum_seconds"] == pytest.approx(0.0006)
        # A stage timing is not a request.
        assert (snapshot["requests"], snapshot["latency"]["count"]) == (0, 0)

    def test_request_accounting(self):
        metrics = ModelMetrics()
        metrics.record_outcome(200, 0.002)
        metrics.record_outcome(200, 0.001, trace_id="ab" * 8)
        metrics.record_samples(4)
        metrics.record_outcome(429, 0.0001)
        metrics.record_outcome(500, 0.003)
        metrics.record_outcome(504, 0.05)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 2
        assert snapshot["samples"] == 4
        assert snapshot["errors"] == 3
        assert snapshot["deadline_exceeded"] == 1
        # Only answers are latencies; the trace id is its bucket's exemplar.
        assert snapshot["latency"]["count"] == 2
        assert snapshot["latency"]["sum_seconds"] == pytest.approx(0.003)
        exemplars = [
            bucket["exemplar"]
            for bucket in snapshot["latency"]["buckets"]
            if "exemplar" in bucket
        ]
        assert [exemplar["trace_id"] for exemplar in exemplars] == ["ab" * 8]
        # The key set docs/observability.md documents and /metrics renders.
        assert set(exemplars[0]) == {"trace_id", "value", "timestamp"}
        assert snapshot["batches"] == 0

    def test_record_batch_counts_batches_and_their_rows(self):
        metrics = ModelMetrics()
        for size in (1, 8, 8, 16):
            metrics.record_batch(size)
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == metrics.batches == 4
        # A batch's rows are scored samples; it answers no request itself.
        assert snapshot["samples"] == 1 + 8 + 8 + 16
        assert snapshot["requests"] == 0


class TestMetricsRegistry:
    def test_for_model_is_stable(self):
        registry = MetricsRegistry()
        assert registry.for_model("a") is registry.for_model("a")
        assert registry.for_model("a") is not registry.for_model("b")

    def test_snapshot_is_json_ready(self):
        import json

        registry = MetricsRegistry()
        registry.for_model("m").record_outcome(200, 0.001)
        registry.for_model("m").record_batch(1)
        payload = json.dumps(registry.snapshot())
        assert '"m"' in payload
        assert list(registry.snapshot()["models"]) == ["m"]

    def test_snapshot_keeps_each_model_apart(self):
        registry = MetricsRegistry()
        registry.for_model("a").record_outcome(200, 0.001)
        registry.for_model("a").record_outcome(200, 0.001)
        registry.for_model("b").record_outcome(429, 0.001)
        models = registry.snapshot()["models"]
        assert sorted(models) == ["a", "b"]
        assert (models["a"]["requests"], models["a"]["errors"]) == (2, 0)
        assert (models["b"]["requests"], models["b"]["errors"]) == (0, 1)


class TestSnapshotConsistency:
    """Snapshots taken during concurrent recording must never be torn."""

    def test_histogram_snapshot_is_internally_consistent_under_writes(self):
        histogram = LatencyHistogram()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                histogram.record(0.001)
                histogram.record(5.0)  # lands in a different bucket

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                snapshot = histogram.snapshot()
                # Cumulative buckets must be monotone and the +Inf bucket
                # must equal the count taken in the same critical section.
                counts = [bucket["count"] for bucket in snapshot["buckets"]]
                assert counts == sorted(counts)
                assert counts[-1] == snapshot["count"]
                # Every observation is 1 ms or 5 s, so the sum must match
                # the bucket counts taken in the same critical section.
                fast = next(b["count"] for b in snapshot["buckets"] if b["le"] == 0.001)
                assert snapshot["sum_seconds"] == pytest.approx(
                    fast * 0.001 + (snapshot["count"] - fast) * 5.0
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_model_snapshot_counters_move_together(self):
        metrics = ModelMetrics()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                # Every batch carries exactly 3 samples, so any snapshot
                # must observe samples == 3 * batches — a torn read (one
                # counter updated, the other not yet) breaks the invariant.
                metrics.record_batch(3)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                snapshot = metrics.snapshot()
                assert snapshot["samples"] == 3 * snapshot["batches"]
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_concurrent_stage_recording(self):
        metrics = ModelMetrics()

        def record_stages():
            for _ in range(200):
                metrics.record_stage("validate", 0.0001)
                metrics.record_stage("dispatch", 0.001)

        threads = [threading.Thread(target=record_stages) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = metrics.snapshot()
        assert snapshot["stages"]["validate"]["count"] == 800
        assert snapshot["stages"]["dispatch"]["count"] == 800
