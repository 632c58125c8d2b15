"""Unit tests for repro.hdc.quantize."""

import numpy as np
import pytest

from repro.hdc.quantize import QuantileQuantizer, UniformQuantizer


class TestUniformQuantizer:
    def test_levels_within_range(self):
        data = np.random.default_rng(0).uniform(0, 1, size=(100, 5))
        levels = UniformQuantizer(8).fit_transform(data)
        assert levels.min() >= 0
        assert levels.max() <= 7

    def test_monotonic_in_value(self):
        data = np.linspace(0, 1, 50).reshape(-1, 1)
        levels = UniformQuantizer(10).fit_transform(data)
        assert np.all(np.diff(levels[:, 0]) >= 0)

    def test_extremes_map_to_extreme_levels(self):
        data = np.array([[0.0], [1.0]])
        quantizer = UniformQuantizer(4).fit(data)
        levels = quantizer.transform(data)
        assert levels[0, 0] == 0
        assert levels[1, 0] == 3

    def test_constant_feature_maps_to_zero(self):
        data = np.full((10, 3), 2.5)
        levels = UniformQuantizer(8).fit_transform(data)
        assert np.all(levels == 0)

    def test_out_of_range_test_values_clipped(self):
        train = np.array([[0.0], [1.0]])
        quantizer = UniformQuantizer(4).fit(train)
        levels = quantizer.transform(np.array([[-5.0], [5.0]]))
        assert levels[0, 0] == 0
        assert levels[1, 0] == 3
        # Levels past the int64 range clip like any other (they once cast to
        # INT64_MIN and landed on level 0); NaN stays at level 0.
        quantizer = UniformQuantizer(16).fit(train)
        values = np.array([[2.0], [1e18], [1e300], [np.inf], [-1e300], [np.nan]])
        np.testing.assert_array_equal(
            quantizer.transform(values)[:, 0], [15, 15, 15, 15, 0, 0]
        )

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            UniformQuantizer(4).transform(np.zeros((2, 2)))

    def test_column_mismatch(self):
        quantizer = UniformQuantizer(4).fit(np.zeros((5, 3)) + np.arange(3))
        with pytest.raises(ValueError):
            quantizer.transform(np.zeros((2, 4)))


class TestQuantileQuantizer:
    def test_equal_frequency_bins(self):
        data = np.random.default_rng(1).normal(size=(1000, 1))
        levels = QuantileQuantizer(4).fit_transform(data)
        counts = np.bincount(levels[:, 0], minlength=4)
        # Each of the four bins should hold roughly a quarter of the samples.
        assert counts.min() > 200
        assert counts.max() < 300

    def test_levels_within_range(self):
        data = np.random.default_rng(2).exponential(size=(200, 3))
        levels = QuantileQuantizer(6).fit_transform(data)
        assert levels.min() >= 0
        assert levels.max() <= 5

    def test_single_level(self):
        data = np.random.default_rng(3).normal(size=(50, 2))
        levels = QuantileQuantizer(1).fit_transform(data)
        assert np.all(levels == 0)

    def test_monotonic_in_value(self):
        data = np.linspace(-3, 3, 100).reshape(-1, 1)
        levels = QuantileQuantizer(5).fit_transform(data)
        assert np.all(np.diff(levels[:, 0]) >= 0)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            QuantileQuantizer(4).transform(np.zeros((2, 2)))
