"""Property tests for repro.obs.sketch (mergeable quantile sketches)."""

import math
import random

import numpy as np
import pytest

from repro.obs.sketch import DEFAULT_RELATIVE_ACCURACY, QuantileSketch


def _log_uniform_samples(rng, n, low=1e-5, high=1e3):
    return [math.exp(rng.uniform(math.log(low), math.log(high))) for _ in range(n)]


def _exact_percentile(samples, p):
    """Nearest-rank percentile (the definition the sketch guarantees)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class TestRecordingAndQuantiles:
    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.percentile(50) == 0.0
        assert sketch.min == 0.0
        assert sketch.max == 0.0
        assert sketch.mean == 0.0

    def test_single_sample_is_exact(self):
        sketch = QuantileSketch()
        sketch.record(0.123)
        for p in (0, 50, 99, 100):
            assert sketch.percentile(p) == pytest.approx(0.123, rel=1e-12)
        assert sketch.min == 0.123
        assert sketch.max == 0.123
        assert sketch.mean == pytest.approx(0.123)

    def test_rejects_bad_values(self):
        sketch = QuantileSketch()
        with pytest.raises(ValueError):
            sketch.record(0.0)
        with pytest.raises(ValueError):
            sketch.record(-1.0)
        with pytest.raises(ValueError):
            sketch.record(float("nan"))
        with pytest.raises(ValueError):
            sketch.percentile(101)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.0)
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=1.0)
        with pytest.raises(ValueError):
            QuantileSketch(min_value=1.0, max_value=0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relative_error_bound_across_magnitudes(self, seed):
        # Samples spanning eight decades: every percentile estimate must be
        # within the documented relative accuracy of the exact nearest-rank
        # sample value.
        rng = random.Random(seed)
        samples = _log_uniform_samples(rng, 2000)
        sketch = QuantileSketch()
        for value in samples:
            sketch.record(value)
        alpha = sketch.relative_accuracy
        for p in (1, 10, 25, 50, 75, 90, 95, 99, 99.9):
            exact = _exact_percentile(samples, p)
            estimate = sketch.percentile(p)
            assert abs(estimate - exact) <= alpha * exact * (1 + 1e-12), (
                f"p{p}: estimate {estimate} vs exact {exact}"
            )

    def test_extremes_and_sum_are_exact(self):
        sketch = QuantileSketch()
        values = [0.004, 0.2, 1.7, 0.00009]
        for value in values:
            sketch.record(value)
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.sum == pytest.approx(sum(values))
        assert sketch.count == len(values)

    def test_out_of_range_values_are_clamped_not_lost(self):
        sketch = QuantileSketch(min_value=1e-3, max_value=1.0)
        sketch.record(1e-6)   # below range -> underflow bucket
        sketch.record(100.0)  # above range -> last bucket
        assert sketch.count == 2
        assert sketch.min == 1e-6
        assert sketch.max == 100.0
        # p100 stays exact thanks to the max clamp.
        assert sketch.percentile(100) == pytest.approx(100.0)


class TestMerge:
    def test_merge_commutative(self):
        rng = random.Random(7)
        a_values = _log_uniform_samples(rng, 300)
        b_values = _log_uniform_samples(rng, 500)
        ab = QuantileSketch()
        ba = QuantileSketch()
        a1, b1 = QuantileSketch(), QuantileSketch()
        for value in a_values:
            a1.record(value)
        for value in b_values:
            b1.record(value)
        ab.merge(a1)
        ab.merge(b1)
        ba.merge(b1)
        ba.merge(a1)
        assert np.array_equal(ab.to_row(), ba.to_row())

    def test_merge_associative(self):
        rng = random.Random(11)
        sketches = []
        for _ in range(3):
            sketch = QuantileSketch()
            for value in _log_uniform_samples(rng, 200):
                sketch.record(value)
            sketches.append(sketch)
        a, b, c = sketches
        left = QuantileSketch()
        left.merge(a)
        left.merge(b)
        left.merge(c)
        bc = QuantileSketch()
        bc.merge(b)
        bc.merge(c)
        right = QuantileSketch()
        right.merge(a)
        right.merge(bc)
        left_row, right_row = left.to_row(), right.to_row()
        # Counts, extremes and every bucket are bit-identical regardless of
        # merge order; the sum cell is a float accumulation, so allow ULPs.
        assert np.array_equal(np.delete(left_row, 1), np.delete(right_row, 1))
        assert left_row[1] == pytest.approx(right_row[1], rel=1e-12)
        for p in (50, 95, 99):
            assert left.percentile(p) == right.percentile(p)

    def test_merge_equals_pooled_stream(self):
        # Merging per-worker sketches must give bit-identical buckets to one
        # sketch fed the pooled stream (counts are integral adds).
        rng = random.Random(3)
        streams = [_log_uniform_samples(rng, 400) for _ in range(4)]
        per_worker = []
        for stream in streams:
            sketch = QuantileSketch()
            for value in stream:
                sketch.record(value)
            per_worker.append(sketch)
        merged = QuantileSketch()
        for sketch in per_worker:
            merged.merge(sketch)
        pooled = QuantileSketch()
        for stream in streams:
            for value in stream:
                pooled.record(value)
        assert np.array_equal(
            merged.to_row()[4:], pooled.to_row()[4:]
        )  # identical buckets
        assert merged.count == pooled.count
        assert merged.min == pooled.min
        assert merged.max == pooled.max

    def test_merged_percentiles_are_pooled_not_averaged(self):
        fast, slow = QuantileSketch(), QuantileSketch()
        for _ in range(90):
            fast.record(0.001)
        for _ in range(10):
            slow.record(1.0)
        merged = QuantileSketch()
        merged.merge(fast)
        merged.merge(slow)
        # The pooled p50 is a fast request; averaging the two p50s would
        # report ~0.5 s, a latency no request had.
        assert merged.percentile(50) == pytest.approx(0.001, rel=DEFAULT_RELATIVE_ACCURACY)
        assert merged.percentile(95) == pytest.approx(1.0, rel=DEFAULT_RELATIVE_ACCURACY)
        assert merged.count == 100

    @pytest.mark.parametrize(
        "distribution", ["uniform", "lognormal", "bimodal", "pareto"]
    )
    def test_merged_shards_match_exact_pooled_percentiles(self, distribution):
        rng = np.random.default_rng(17)
        draw = {
            "uniform": lambda n: rng.uniform(0.001, 0.5, n),
            "lognormal": lambda n: rng.lognormal(-4.0, 1.0, n),
            "bimodal": lambda n: np.where(
                rng.random(n) < 0.8, rng.normal(0.004, 0.0005, n), rng.normal(0.2, 0.02, n)
            ),
            "pareto": lambda n: 0.001 * (1.0 + rng.pareto(1.5, n)),
        }[distribution]
        shards = [np.abs(draw(size)) + 1e-5 for size in (50, 300, 700, 1500)]
        merged = QuantileSketch()
        for shard in shards:
            sketch = QuantileSketch()
            for value in shard:
                sketch.record(float(value))
            merged.merge(sketch)
        pooled = np.concatenate(shards).tolist()
        assert merged.count == len(pooled)
        for p in (1, 25, 50, 75, 90, 99, 99.9):
            exact = _exact_percentile(pooled, p)
            assert merged.percentile(p) == pytest.approx(
                exact, rel=DEFAULT_RELATIVE_ACCURACY
            ), f"p{p}"

    def test_merge_with_empty_preserves_extremes(self):
        sketch = QuantileSketch()
        sketch.record(0.5)
        sketch.merge(QuantileSketch())
        assert sketch.min == 0.5
        assert sketch.max == 0.5
        empty = QuantileSketch()
        empty.merge(sketch)
        assert empty.min == 0.5
        assert empty.count == 1

    def test_merge_rejects_mismatched_parameters(self):
        with pytest.raises(ValueError):
            QuantileSketch(relative_accuracy=0.01).merge(
                QuantileSketch(relative_accuracy=0.02)
            )


class TestSnapshot:
    def test_snapshot_shape(self):
        sketch = QuantileSketch()
        sketch.record(0.004)
        snapshot = sketch.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["p50_ms"] == pytest.approx(4.0, rel=0.02)
        assert snapshot["relative_accuracy"] == DEFAULT_RELATIVE_ACCURACY
