"""Unit tests for repro.serve.metrics."""

import threading

import pytest

from repro.serve.metrics import LatencyHistogram, MetricsRegistry, ModelMetrics


class TestLatencyHistogram:
    def test_empty_histogram(self):
        snapshot = LatencyHistogram().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_ms"] == 0.0
        assert snapshot["p50_ms"] == 0.0

    def test_percentiles_bracket_observations(self):
        histogram = LatencyHistogram()
        for _ in range(49):
            histogram.record(0.001)  # 1 ms
        histogram.record(1.0)  # one outlier
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 50
        # p50 lands at 1 ms; p99 (rank 50 of 50) is the outlier.
        assert snapshot["p50_ms"] <= 2.0
        assert snapshot["p99_ms"] >= 500.0
        assert snapshot["max_ms"] == pytest.approx(1000.0)

    def test_mean_is_exact(self):
        histogram = LatencyHistogram()
        histogram.record(0.010)
        histogram.record(0.030)
        assert histogram.snapshot()["mean_ms"] == pytest.approx(20.0)

    def test_overflow_bucket_reports_max(self):
        histogram = LatencyHistogram(bounds=[0.001])
        histogram.record(5.0)
        snapshot = histogram.snapshot()
        assert snapshot["p99_ms"] == pytest.approx(5000.0)
        assert snapshot["buckets"] == [
            {"le": 0.001, "count": 0},
            {"le": "+Inf", "count": 1},
        ]

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


class TestModelMetrics:
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
        assert snapshot["latency"]["max_ms"] == pytest.approx(2.0)
        exemplars = [
            bucket["exemplar"]
            for bucket in snapshot["latency"]["buckets"]
            if "exemplar" in bucket
        ]
        assert [exemplar["trace_id"] for exemplar in exemplars] == ["ab" * 8]
        # The key set docs/observability.md documents and /metrics renders.
        assert set(exemplars[0]) == {"trace_id", "value", "timestamp"}
        assert snapshot["batches"] == 0

    def test_batch_size_distribution(self):
        metrics = ModelMetrics()
        for size in (1, 8, 8, 16):
            metrics.record_batch(size)
        snapshot = metrics.snapshot()
        assert snapshot["batches"] == 4
        assert snapshot["batch_size_distribution"] == {"1": 1, "8": 2, "16": 1}
        assert snapshot["mean_batch_size"] == pytest.approx((1 + 8 + 8 + 16) / 4)
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
                if snapshot["count"]:
                    assert snapshot["mean_ms"] == pytest.approx(
                        snapshot["sum_seconds"] / snapshot["count"] * 1e3
                    )
                    assert snapshot["max_ms"] >= snapshot["p50_ms"]
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
