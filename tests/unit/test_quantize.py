"""Unit tests for repro.hdc.quantize."""

import re
import warnings

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
        # INT64_MIN and landed on level 0); NaN stays at level 0.  Values near
        # the float64 maximum overflow the scale to ±inf without a warning.
        quantizer = UniformQuantizer(16).fit(train)
        values = np.array(
            [[2.0], [1e18], [1e300], [1.7e308], [np.inf], [-1e300], [-1.7e308], [np.nan]]
        )
        np.testing.assert_array_equal(
            quantizer.transform(values)[:, 0], [15, 15, 15, 15, 15, 0, 0, 0]
        )

    @pytest.mark.parametrize(
        "train, value, level",
        [
            ((-1.0, 0.5), 1e308, 15),
            ((-1.0, 0.5), np.finfo(np.float64).max, 15),
            ((-1.0, 0.5), -np.finfo(np.float64).max, 0),
            ((0.0, 1e-300), 1e10, 15),
            ((0.0, 1e-300), -1e10, 0),
        ],
        ids=["1e308", "max", "-max", "tiny-range-above", "tiny-range-below"],
    )
    def test_an_overflowing_scale_takes_the_end_level_silently(self, train, value, level):
        # The multiply (or, over a tiny range, the divide) overflows to ±inf.
        quantizer = UniformQuantizer(16).fit(np.array(train).reshape(-1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale = quantizer.scale(np.array([[value]]))
            levels = quantizer.transform(np.array([[value]]))
        assert np.isinf(scale[0, 0])
        assert levels[0, 0] == level

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_an_infinite_value_in_a_constant_feature_takes_level_zero(self, value):
        # A constant feature's range is inf, so inf / inf is NaN: level 0,
        # like every other value of that feature, without a warning.
        quantizer = UniformQuantizer(16).fit(np.array([[2.0, 0.0], [2.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = quantizer.transform(np.array([[value, 1.0]]))
        np.testing.assert_array_equal(levels, [[0, 15]])

    @pytest.mark.parametrize(
        "train, named",
        [
            ([[-1e308], [1e308]], "[0]"),
            (
                [[0.0, -1e308, 1.0, -np.finfo(np.float64).max],
                 [1.0, 1e308, 2.0, np.finfo(np.float64).max]],
                "[1, 3]",
            ),
        ],
        ids=["one-feature", "two-of-four"],
    )
    def test_a_span_past_the_float64_maximum_is_refused(self, train, named):
        # max - min overflows to inf, the range of a constant feature, which
        # would put -1e308, 0 and 1e308 all at level 0.
        quantizer = UniformQuantizer(16)
        with pytest.raises(ValueError, match=re.escape(f"features {named} span")):
            quantizer.fit(np.array(train))
        with pytest.raises(RuntimeError):
            quantizer.transform(np.zeros((1, len(train[0]))))

    def test_a_span_of_the_float64_maximum_is_fitted(self):
        top = np.finfo(np.float64).max
        quantizer = UniformQuantizer(16).fit(np.array([[0.0], [top]]))
        levels = quantizer.transform(np.array([[0.0], [top / 2], [top]]))
        np.testing.assert_array_equal(levels[:, 0], [0, 8, 15])

    def test_scale_is_its_formula_bit_for_bit(self):
        # The encoder's thermometer bits read these coordinates directly, so
        # the arithmetic order (subtract, divide, multiply) is part of the
        # model's bits.
        rng = np.random.default_rng(5)
        train = rng.normal(size=(50, 6)) * 10
        quantizer = UniformQuantizer(32).fit(train)
        test = rng.normal(size=(20, 6)) * 12
        expected = (test - train.min(axis=0)) / (train.max(axis=0) - train.min(axis=0)) * 32
        np.testing.assert_array_equal(quantizer.scale(test), expected)

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
