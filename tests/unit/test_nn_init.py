"""Unit tests for repro.nn.init."""

import numpy as np
import pytest

from repro.nn.init import INIT_SCALE, scaled_uniform_init


class TestScaledUniformInit:
    def test_range(self):
        values = scaled_uniform_init((100, 50), seed=0)
        assert values.shape == (100, 50)
        assert values.dtype == np.float32
        assert INIT_SCALE == 0.01
        assert np.all(np.abs(values) <= INIT_SCALE)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            scaled_uniform_init((5, 5), seed=1), scaled_uniform_init((5, 5), seed=1)
        )

    @pytest.mark.parametrize("keyword", [{"scale": 0.02}, {"dtype": np.float64}])
    def test_scale_and_dtype_are_not_knobs(self, keyword):
        with pytest.raises(TypeError):
            scaled_uniform_init((2, 2), **keyword)
