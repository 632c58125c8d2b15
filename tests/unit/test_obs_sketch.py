"""Property tests for repro.obs.sketch (quantile sketches)."""

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
        for p in (0, 50, 100):
            assert sketch.percentile(p) == 0.0

    def test_single_sample_is_exact(self):
        sketch = QuantileSketch()
        sketch.record(0.123)
        for p in (0, 50, 99, 100):
            assert sketch.percentile(p) == pytest.approx(0.123, rel=1e-12)

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

    def test_count_and_max_are_exact(self):
        sketch = QuantileSketch()
        values = [0.004, 0.2, 1.7, 0.00009]
        for value in values:
            sketch.record(value)
        assert sketch.count == len(values)
        assert sketch.percentile(100) == max(values)
        # Estimates never leave the observed range.
        assert sketch.percentile(0) >= min(values)

    def test_out_of_range_values_are_clamped_not_lost(self):
        sketch = QuantileSketch(min_value=1e-3, max_value=1.0)
        sketch.record(1e-6)   # below range -> underflow bucket
        sketch.record(100.0)  # above range -> last bucket
        assert sketch.count == 2
        # p100 stays exact thanks to the max clamp.
        assert sketch.percentile(100) == pytest.approx(100.0)

    @pytest.mark.parametrize(
        "distribution", ["uniform", "lognormal", "bimodal", "pareto"]
    )
    def test_percentiles_match_exact_across_distributions(self, distribution):
        rng = np.random.default_rng(17)
        draw = {
            "uniform": lambda n: rng.uniform(0.001, 0.5, n),
            "lognormal": lambda n: rng.lognormal(-4.0, 1.0, n),
            "bimodal": lambda n: np.where(
                rng.random(n) < 0.8, rng.normal(0.004, 0.0005, n), rng.normal(0.2, 0.02, n)
            ),
            "pareto": lambda n: 0.001 * (1.0 + rng.pareto(1.5, n)),
        }[distribution]
        samples = (np.abs(draw(2550)) + 1e-5).tolist()
        sketch = QuantileSketch()
        for value in samples:
            sketch.record(value)
        assert sketch.count == len(samples)
        for p in (1, 25, 50, 75, 90, 99, 99.9):
            exact = _exact_percentile(samples, p)
            assert sketch.percentile(p) == pytest.approx(
                exact, rel=DEFAULT_RELATIVE_ACCURACY
            ), f"p{p}"
