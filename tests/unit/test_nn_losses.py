"""Unit tests for repro.nn.losses."""

import numpy as np
import pytest

from reference import count_subnormals, reference_cross_entropy
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(5, 4))
        probabilities = softmax(logits)
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5))

    def test_shift_invariance(self):
        logits = np.random.default_rng(1).normal(size=(3, 4))
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))

    def test_large_values_stable(self):
        logits = np.array([[1e4, 0.0, -1e4]])
        probabilities = softmax(logits)
        assert np.all(np.isfinite(probabilities))
        assert probabilities[0, 0] == pytest.approx(1.0)

    def test_monotonic(self):
        probabilities = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert probabilities[0, 0] < probabilities[0, 1] < probabilities[0, 2]


class TestOneHot:
    def test_basic(self):
        encoded = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            one_hot(np.zeros((2, 2), dtype=np.int64), 3)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = cross_entropy_from_logits(logits, np.array([0, 1]))
        assert loss < 1e-6

    def test_uniform_prediction_loss(self):
        logits = np.zeros((4, 8))
        loss, _ = cross_entropy_from_logits(logits, np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(np.log(8))

    def test_gradient_sums_to_zero_per_row(self):
        logits = np.random.default_rng(2).normal(size=(6, 5))
        _, grad = cross_entropy_from_logits(logits, np.random.default_rng(3).integers(0, 5, size=6))
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(6), atol=1e-12)

    def test_gradient_numerically(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        _, grad = cross_entropy_from_logits(logits, labels)
        epsilon = 1e-6
        numeric = np.zeros_like(logits)
        for i in range(logits.shape[0]):
            for j in range(logits.shape[1]):
                perturbed = logits.copy()
                perturbed[i, j] += epsilon
                upper, _ = cross_entropy_from_logits(perturbed, labels)
                perturbed[i, j] -= 2 * epsilon
                lower, _ = cross_entropy_from_logits(perturbed, labels)
                numeric[i, j] = (upper - lower) / (2 * epsilon)
        np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros(3), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy_from_logits(np.zeros((2, 3)), np.array([0]))

    def test_extremely_wrong_prediction_finite(self):
        logits = np.array([[1e5, -1e5]])
        loss, grad = cross_entropy_from_logits(logits, np.array([1]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))


class TestSubnormalFlush:
    """Saturated float32 logits must not hand BLAS subnormal gradient entries."""

    @staticmethod
    def saturated(dtype):
        rng = np.random.default_rng(6)
        # Class spreads of 100-300, as D=4000 LeHDC logits reach in training.
        logits = rng.uniform(-150.0, 150.0, size=(256, 10)).astype(dtype)
        return logits, rng.integers(0, 10, size=256)

    def test_float32_gradient_has_no_subnormals(self):
        logits, labels = self.saturated(np.float32)
        reference_loss, reference_grad = reference_cross_entropy(logits, labels)
        assert count_subnormals(reference_grad) > 0
        loss, grad = cross_entropy_from_logits(logits, labels)
        assert grad.dtype == np.float32
        assert count_subnormals(grad) == 0
        assert loss == reference_loss
        # Only the subnormal entries changed, and they became zero.
        normal = np.abs(reference_grad) >= np.finfo(np.float32).tiny
        np.testing.assert_array_equal(grad[normal], reference_grad[normal])
        assert np.all(grad[~normal] == 0)

    def test_flushed_rows_still_sum_to_zero(self):
        logits, labels = self.saturated(np.float32)
        _, grad = cross_entropy_from_logits(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(256), atol=1e-6)

    def test_float64_gradient_unchanged(self):
        logits, labels = self.saturated(np.float64)
        _, reference_grad = reference_cross_entropy(logits, labels)
        _, grad = cross_entropy_from_logits(logits, labels)
        assert grad.dtype == np.float64
        np.testing.assert_array_equal(grad, reference_grad)
