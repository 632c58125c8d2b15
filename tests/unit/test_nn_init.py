"""Unit tests for repro.nn.init."""

import numpy as np
import pytest

from repro.nn.init import scaled_uniform_init


class TestScaledUniformInit:
    def test_range(self):
        values = scaled_uniform_init((100, 50), scale=0.02, seed=0)
        assert values.shape == (100, 50)
        assert np.all(np.abs(values) <= 0.02)

    def test_reproducible(self):
        np.testing.assert_array_equal(
            scaled_uniform_init((5, 5), seed=1), scaled_uniform_init((5, 5), seed=1)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            scaled_uniform_init((2, 2), scale=0.0)
