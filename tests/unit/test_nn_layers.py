"""Unit tests for repro.nn.layers, including numerical gradient checks."""

import numpy as np
import pytest

from repro.nn.layers import BinaryLinear, Dropout, Linear
from repro.nn.losses import cross_entropy_from_logits


def numerical_gradient(function, value, epsilon=1e-6):
    """Central-difference gradient of a scalar function of an array."""
    gradient = np.zeros_like(value)
    flat_value = value.ravel()
    flat_gradient = gradient.ravel()
    for index in range(flat_value.size):
        original = flat_value[index]
        flat_value[index] = original + epsilon
        upper = function()
        flat_value[index] = original - epsilon
        lower = function()
        flat_value[index] = original
        flat_gradient[index] = (upper - lower) / (2 * epsilon)
    return gradient


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3, seed=0)
        outputs = layer.forward(np.random.default_rng(0).normal(size=(7, 5)))
        assert outputs.shape == (7, 3)

    def test_gradient_check(self):
        rng = np.random.default_rng(1)
        # Central differences with eps=1e-6 need full precision, so the
        # check runs on a float64 copy of the float32 weights.
        layer = Linear(4, 3, seed=2)
        layer.weight.value = layer.weight.value.astype(np.float64)
        inputs = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)

        def loss_value():
            loss, _ = cross_entropy_from_logits(inputs @ layer.weight.value, labels)
            return loss

        logits = layer.forward(inputs)
        _, grad_logits = cross_entropy_from_logits(logits, labels)
        layer.zero_grad()
        layer.backward(grad_logits)

        numeric_weight = numerical_gradient(loss_value, layer.weight.value)
        np.testing.assert_allclose(layer.weight.grad, numeric_weight, atol=1e-6)

    def test_backward_returns_no_input_gradient(self):
        """The layer's input is encoded data; only the weights get a gradient."""
        layer = Linear(3, 2, seed=3)
        assert [parameter.name for parameter in layer.parameters()] == ["linear.weight"]
        layer.forward(np.ones((2, 3)))
        layer.zero_grad()
        assert layer.backward(np.ones((2, 2))) is None
        np.testing.assert_array_equal(layer.weight.grad, np.full((3, 2), 2.0))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            Linear(2, 2, seed=0).backward(np.ones((1, 2)))

    @pytest.mark.parametrize("layer", [Linear, BinaryLinear])
    @pytest.mark.parametrize("keyword", [{"dtype": np.float64}, {"init_scale": 0.1}])
    def test_weights_are_float32_from_a_fixed_scale(self, layer, keyword):
        # Neither the dtype nor the init scale is a knob.
        with pytest.raises(TypeError):
            layer(4, 2, **keyword)
        weight = layer(4, 2, seed=0).weight.value
        assert weight.dtype == np.float32
        assert np.all(np.abs(weight) <= 0.01)


class TestBinaryLinear:
    def test_binary_weight_values(self):
        layer = BinaryLinear(10, 4, seed=0)
        assert set(np.unique(layer.binary_weight)) <= {-1.0, 1.0}

    def test_forward_uses_binary_weights(self):
        layer = BinaryLinear(6, 2, seed=1)
        inputs = np.ones((1, 6))
        outputs = layer.forward(inputs)
        np.testing.assert_allclose(outputs, inputs @ layer.binary_weight)

    def test_ste_gradient_matches_input_outer_product(self):
        layer = BinaryLinear(4, 3, latent_clip=None, seed=2)
        inputs = np.random.default_rng(3).normal(size=(5, 4))
        grad_output = np.random.default_rng(4).normal(size=(5, 3))
        layer.forward(inputs)
        layer.zero_grad()
        layer.backward(grad_output)
        np.testing.assert_allclose(layer.weight.grad, inputs.T @ grad_output)

    def test_backward_returns_no_input_gradient(self):
        """The layer's input is encoded data; only the weights get a gradient."""
        layer = BinaryLinear(4, 3, seed=11)
        layer.forward(np.ones((2, 4)))
        layer.zero_grad()
        assert layer.backward(np.ones((2, 3))) is None
        np.testing.assert_array_equal(layer.weight.grad, np.full((4, 3), 2.0))

    def test_clip_masks_gradient(self):
        layer = BinaryLinear(2, 1, latent_clip=1.0, seed=5)
        layer.weight.value[:] = np.array([[2.0], [0.5]])  # first weight saturated
        layer.forward(np.ones((1, 2)))
        layer.zero_grad()
        layer.backward(np.ones((1, 1)))
        assert layer.weight.grad[0, 0] == 0.0
        assert layer.weight.grad[1, 0] != 0.0

    def test_clip_latent(self):
        layer = BinaryLinear(3, 2, latent_clip=0.5, seed=6)
        layer.weight.value[:] = 10.0
        layer.clip_latent()
        assert np.all(layer.weight.value <= 0.5)

    def test_clip_latent_noop_when_disabled(self):
        layer = BinaryLinear(3, 2, latent_clip=None, seed=7)
        layer.weight.value[:] = 10.0
        layer.clip_latent()
        assert np.all(layer.weight.value == 10.0)

    def test_set_latent_from_bipolar(self):
        layer = BinaryLinear(3, 2, seed=8)
        bipolar = np.array([[1, -1], [-1, 1], [1, 1]], dtype=np.float64)
        layer.set_latent_from_bipolar(bipolar, magnitude=0.1)
        np.testing.assert_array_equal(layer.binary_weight, bipolar)

    def test_set_latent_validation(self):
        layer = BinaryLinear(3, 2, seed=9)
        with pytest.raises(ValueError):
            layer.set_latent_from_bipolar(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            layer.set_latent_from_bipolar(np.ones((2, 2)))

    def test_zero_latent_binarises_to_plus_one(self):
        layer = BinaryLinear(2, 2, seed=10)
        layer.weight.value[:] = 0.0
        assert np.all(layer.binary_weight == 1.0)

    def test_invalid_clip(self):
        with pytest.raises(ValueError):
            BinaryLinear(2, 2, latent_clip=0.0)


class TestDropout:
    def test_eval_mode_is_identity(self):
        layer = Dropout(0.5, seed=0)
        layer.eval()
        inputs = np.random.default_rng(1).normal(size=(4, 10))
        np.testing.assert_array_equal(layer.forward(inputs), inputs)

    def test_training_mode_zeroes_some_inputs(self):
        layer = Dropout(0.5, seed=2)
        inputs = np.ones((10, 100))
        outputs = layer.forward(inputs)
        zero_fraction = float(np.mean(outputs == 0.0))
        assert 0.35 < zero_fraction < 0.65

    def test_inverted_scaling_preserves_expectation(self):
        layer = Dropout(0.3, seed=3)
        inputs = np.ones((200, 200))
        outputs = layer.forward(inputs)
        assert np.mean(outputs) == pytest.approx(1.0, abs=0.05)

    def test_backward_applies_same_mask(self):
        layer = Dropout(0.5, seed=4)
        inputs = np.ones((5, 20))
        outputs = layer.forward(inputs)
        grads = layer.backward(np.ones((5, 20)))
        np.testing.assert_array_equal(grads == 0.0, outputs == 0.0)

    def test_zero_rate_is_identity(self):
        layer = Dropout(0.0, seed=5)
        inputs = np.random.default_rng(6).normal(size=(3, 4))
        np.testing.assert_array_equal(layer.forward(inputs), inputs)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_rate_whose_keep_count_rounds_to_zero_is_rejected(self):
        assert Dropout(1.0 - 2.0**-16).keep_count == 1
        with pytest.raises(ValueError, match="keeps no entry"):
            Dropout(1.0 - 2.0**-18)

    def test_same_seed_same_mask(self):
        inputs = np.ones((33, 71), dtype=np.int8)
        first = Dropout(0.3, seed=9).forward(inputs)
        np.testing.assert_array_equal(first, Dropout(0.3, seed=9).forward(inputs))
        assert not np.array_equal(first, Dropout(0.3, seed=10).forward(inputs))

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_kept_fraction_matches_the_16_bit_threshold(self, rate):
        layer = Dropout(rate, seed=11)
        assert layer.keep_count == round((1.0 - rate) * 65536)
        probability = layer.keep_count / 65536
        inputs = np.ones((1000, 1000), dtype=np.int8)
        draws = 10
        kept = sum(int(np.count_nonzero(layer.forward(inputs))) for _ in range(draws))
        entries = draws * inputs.size
        sigma = np.sqrt(entries * probability * (1.0 - probability))
        assert abs(kept - entries * probability) <= 5 * sigma

    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 3, 3), (5, 4001)])
    def test_sizes_not_a_multiple_of_four(self, shape):
        layer = Dropout(0.5, seed=12)
        outputs = layer.forward(np.ones(shape, dtype=np.int8))
        assert outputs.shape == shape
        assert set(np.unique(outputs)) <= {0.0, 2.0}

    def test_int8_input_matches_float32_input(self):
        bipolar = np.where(np.random.default_rng(13).random((17, 203)) < 0.5, 1, -1)
        from_int8 = Dropout(0.3, seed=14).forward(bipolar.astype(np.int8))
        from_float32 = Dropout(0.3, seed=14).forward(bipolar.astype(np.float32))
        assert from_int8.dtype == np.float32 and from_float32.dtype == np.float32
        np.testing.assert_array_equal(from_int8 == 0, from_float32 == 0)
        np.testing.assert_array_equal(from_int8, from_float32)

    def test_float64_input_stays_float64(self):
        outputs = Dropout(0.3, seed=15).forward(np.ones((4, 9), dtype=np.float64))
        assert outputs.dtype == np.float64
        assert set(np.unique(outputs)) <= {0.0, 1.0 / 0.7}

    @pytest.mark.parametrize("size", [1, 4, 5, 1023, 256 * 4000])
    def test_draws_one_uint64_per_four_entries(self, size):
        layer = Dropout(0.3, seed=16)
        layer.forward(np.ones(size, dtype=np.int8))
        replay = np.random.default_rng(16)
        replay.bit_generator.random_raw(-(-size // 4))
        assert layer._rng.bit_generator.state == replay.bit_generator.state
