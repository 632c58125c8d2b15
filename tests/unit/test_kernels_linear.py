"""Unit tests for the float dtype, its casts, and its use in training."""

import numpy as np
import pytest

from repro.core.bnn_model import BNNTrainer, SingleLayerBNN
from repro.core.configs import DEFAULT_CONFIG
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.kernels.linear import FLOAT_DTYPE, as_float, float_dtype_of, sign_bipolar
from repro.nn.layers import Linear
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax
from repro.nn.optim import Adam


class TestFloatDtype:
    def test_is_float32(self):
        assert FLOAT_DTYPE == np.dtype(np.float32)

    def test_environment_does_not_switch_it(self, monkeypatch):
        # The dtype is not configurable: a fit trains float32 latent weights
        # whatever the environment says.
        monkeypatch.setenv("REPRO_FLOAT_DTYPE", "float64")
        rng = np.random.default_rng(0)
        hypervectors = rng.integers(0, 2, size=(32, 64)).astype(np.int8) * 2 - 1
        labels = rng.integers(0, 2, size=32)
        config = DEFAULT_CONFIG.with_overrides(epochs=1, batch_size=16)
        fitted = LeHDCClassifier(config, seed=0).fit(hypervectors, labels)
        assert fitted.latent_class_hypervectors_.dtype == np.float32


class TestAsFloat:
    def test_integer_input_casts_to_float32(self):
        assert as_float(np.ones(3, dtype=np.int8)).dtype == np.float32

    def test_float_input_preserved(self):
        for dtype in (np.float32, np.float64):
            array = np.ones(3, dtype=dtype)
            result = as_float(array)
            assert result.dtype == dtype
            assert result is array  # no copy either

    def test_float_dtype_of_names_the_compute_dtype(self):
        assert float_dtype_of(np.ones(2, dtype=np.float64)) == np.float64
        assert float_dtype_of(np.ones(2, dtype=np.float16)) == np.float16
        assert float_dtype_of(np.ones(2, dtype=np.int8)) == np.float32


class TestSignBipolar:
    def test_values_and_zero_mapping(self):
        values = np.array([-0.5, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(sign_bipolar(values), [-1.0, 1.0, 1.0])

    def test_dtype_follows_input(self):
        assert sign_bipolar(np.zeros(2, dtype=np.float64)).dtype == np.float64
        assert sign_bipolar(np.zeros(2, dtype=np.float32)).dtype == np.float32

    def test_integer_input_takes_float32(self):
        values = np.array([-3, 0, 4], dtype=np.int64)
        result = sign_bipolar(values)
        assert result.dtype == np.float32
        np.testing.assert_array_equal(result, [-1.0, 1.0, 1.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_equal_the_select_form(self, dtype):
        # The select form is the reference: sgn(x) = -1 where x < 0, else +1.
        rng = np.random.default_rng(5)
        values = rng.standard_normal((4000, 10)).astype(dtype)
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
        values.flat[rng.choice(values.size, size=60, replace=False)] = np.repeat(
            np.array(edges, dtype=dtype), 10
        )
        expected = np.where(values < 0, dtype(-1), dtype(1))
        got = sign_bipolar(values)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestLossDtypes:
    def test_softmax_preserves_float32(self):
        assert softmax(np.zeros((2, 3), dtype=np.float32)).dtype == np.float32

    def test_one_hot_default_float32(self):
        assert one_hot(np.array([0, 1]), 2).dtype == np.float32

    def test_cross_entropy_gradient_follows_logits(self):
        logits = np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32)
        loss, grad = cross_entropy_from_logits(logits, np.array([0, 1, 2, 0]))
        assert isinstance(loss, float)
        assert grad.dtype == np.float32


class TestNoSilentUpcastsDuringTraining:
    """A full training step stays in float32 end to end."""

    def test_training_step_stays_in_float32(self):
        rng = np.random.default_rng(3)
        hypervectors = rng.integers(0, 2, size=(48, 128)).astype(np.int8) * 2 - 1
        labels = rng.integers(0, 4, size=48)
        model = SingleLayerBNN(dimension=128, num_classes=4, dropout_rate=0.3, seed=0)
        config = DEFAULT_CONFIG.with_overrides(
            epochs=1, batch_size=16, validation_fraction=0.0
        )
        trainer = BNNTrainer(model, config, seed=0)

        # Parameters are initialised in float32.
        assert model.linear.weight.value.dtype == np.float32

        # Every intermediate of one forward/backward stays in float32.
        inputs = as_float(hypervectors)
        assert inputs.dtype == np.float32
        logits = model.forward(inputs)
        assert logits.dtype == np.float32
        loss, grad_logits = cross_entropy_from_logits(logits, labels)
        assert grad_logits.dtype == np.float32
        model.zero_grad()
        # The input is encoded data: backward returns no input gradient.
        assert model.backward(grad_logits) is None
        assert model.linear.weight.grad.dtype == np.float32

        # A full optimiser epoch leaves weights and Adam state in float32.
        trainer.train(hypervectors, labels)
        assert model.linear.weight.value.dtype == np.float32
        for moment_store in (
            trainer.optimizer._first_moment,
            trainer.optimizer._second_moment,
        ):
            for moment in moment_store.values():
                assert moment.dtype == np.float32

    def test_nonbinary_training_stays_in_float32(self, monkeypatch):
        """The non-binary trainer hands the int8 split to Dropout, like BNNTrainer."""
        seen = []
        forward = Linear.forward
        compute_update = Adam._compute_update

        def spy_forward(self, inputs):
            seen.append(("input", inputs.dtype))
            return forward(self, inputs)

        def spy_update(self, parameter, grad):
            seen.append(("grad", grad.dtype))
            update = compute_update(self, parameter, grad)
            seen.append(("moment", self._first_moment[id(parameter)].dtype))
            seen.append(("moment", self._second_moment[id(parameter)].dtype))
            return update

        monkeypatch.setattr(Linear, "forward", spy_forward)
        monkeypatch.setattr(Adam, "_compute_update", spy_update)
        rng = np.random.default_rng(4)
        hypervectors = rng.integers(0, 2, size=(48, 128)).astype(np.int8) * 2 - 1
        labels = rng.integers(0, 4, size=48)
        config = DEFAULT_CONFIG.with_overrides(epochs=2, batch_size=16)
        classifier = NonBinaryLeHDCClassifier(config, seed=0).fit(hypervectors, labels)
        assert classifier.nonbinary_class_hypervectors_.dtype == np.float32
        assert {kind for kind, _ in seen} == {"input", "grad", "moment"}
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}

    def test_float64_hypervectors_are_not_downcast(self):
        """Pre-cast float64 inputs keep their precision (no silent down-cast)."""
        inputs = np.ones((4, 16), dtype=np.float64)
        model = SingleLayerBNN(dimension=16, num_classes=2, dropout_rate=0.0, seed=0)
        # float64 inputs against float32 weights promote to float64 — the
        # caller's precision is never reduced behind their back.
        assert model.forward(inputs).dtype == np.float64
