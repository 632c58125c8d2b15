"""Unit tests for the float dtype policy, its casts, and its use in training."""

import numpy as np
import pytest

from repro.core.bnn_model import BNNTrainer, SingleLayerBNN
from repro.core.configs import DEFAULT_CONFIG
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.kernels.linear import (
    as_float,
    float_dtype,
    float_dtype_of,
    set_float_dtype,
    sign_bipolar,
    use_float_dtype,
    zeros,
)
from repro.nn.layers import Linear
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax
from repro.nn.optim import Adam


class TestFloatDtypePolicy:
    def test_default_is_float32(self, monkeypatch):
        monkeypatch.delenv("REPRO_FLOAT_DTYPE", raising=False)
        set_float_dtype(None)
        assert float_dtype() == np.dtype(np.float32)

    def test_environment_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOAT_DTYPE", "float64")
        set_float_dtype(None)
        assert float_dtype() == np.dtype(np.float64)
        monkeypatch.delenv("REPRO_FLOAT_DTYPE")

    def test_use_float_dtype_context(self):
        with use_float_dtype(np.float64):
            assert float_dtype() == np.dtype(np.float64)
        assert float_dtype() == np.dtype(np.float32)

    def test_non_float_dtype_rejected(self):
        with pytest.raises(ValueError, match="floating dtype"):
            set_float_dtype(np.int32)

    def test_non_float_environment_dtype_rejected(self, monkeypatch):
        # A stale or mistyped setting fails loudly instead of training in ints.
        set_float_dtype(None)
        monkeypatch.setenv("REPRO_FLOAT_DTYPE", "int32")
        with pytest.raises(ValueError, match="floating dtype"):
            float_dtype()

    def test_explicit_setting_wins_until_reset(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOAT_DTYPE", "float64")
        set_float_dtype(np.float32)
        try:
            assert float_dtype() == np.dtype(np.float32)
        finally:
            set_float_dtype(None)
        assert float_dtype() == np.dtype(np.float64)  # back to the environment

    def test_use_float_dtype_restores_after_an_error(self):
        with pytest.raises(RuntimeError):
            with use_float_dtype(np.float64):
                raise RuntimeError("boom")
        assert float_dtype() == np.dtype(np.float32)


class TestAsFloat:
    def test_integer_input_casts_to_policy(self):
        assert as_float(np.ones(3, dtype=np.int8)).dtype == np.float32

    def test_float_input_preserved(self):
        for dtype in (np.float32, np.float64):
            array = np.ones(3, dtype=dtype)
            result = as_float(array)
            assert result.dtype == dtype
            assert result is array  # no copy either

    def test_policy_override(self):
        with use_float_dtype(np.float64):
            assert as_float(np.ones(3, dtype=np.int8)).dtype == np.float64

    def test_float_dtype_of_names_the_compute_dtype(self):
        assert float_dtype_of(np.ones(2, dtype=np.float64)) == np.float64
        assert float_dtype_of(np.ones(2, dtype=np.float16)) == np.float16
        assert float_dtype_of(np.ones(2, dtype=np.int8)) == np.float32
        with use_float_dtype(np.float64):
            assert float_dtype_of(np.ones(2, dtype=np.int8)) == np.float64

    def test_zeros_follow_the_policy_unless_given_a_dtype(self):
        assert zeros((2, 3)).dtype == np.float32
        with use_float_dtype(np.float64):
            assert zeros(4).dtype == np.float64
        explicit = zeros(3, dtype=np.int64)
        assert explicit.dtype == np.int64
        np.testing.assert_array_equal(explicit, 0)


class TestSignBipolar:
    def test_values_and_zero_mapping(self):
        values = np.array([-0.5, 0.0, 2.0], dtype=np.float32)
        np.testing.assert_array_equal(sign_bipolar(values), [-1.0, 1.0, 1.0])

    def test_dtype_follows_input(self):
        assert sign_bipolar(np.zeros(2, dtype=np.float64)).dtype == np.float64
        assert sign_bipolar(np.zeros(2, dtype=np.float32)).dtype == np.float32

    def test_integer_input_and_integer_target_take_the_policy_dtype(self):
        values = np.array([-3, 0, 4], dtype=np.int64)
        result = sign_bipolar(values)
        assert result.dtype == np.float32
        np.testing.assert_array_equal(result, [-1.0, 1.0, 1.0])
        assert sign_bipolar(values, dtype=np.int8).dtype == np.float32
        assert sign_bipolar(values, dtype=np.float64).dtype == np.float64

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

    def test_one_hot_default_policy_dtype(self):
        assert one_hot(np.array([0, 1]), 2).dtype == np.float32

    def test_cross_entropy_gradient_follows_logits(self):
        logits = np.random.default_rng(2).normal(size=(4, 3)).astype(np.float32)
        loss, grad = cross_entropy_from_logits(logits, np.array([0, 1, 2, 0]))
        assert isinstance(loss, float)
        assert grad.dtype == np.float32


class TestNoSilentUpcastsDuringTraining:
    """Satellite: a full training step stays in the policy dtype end to end."""

    @pytest.mark.parametrize("policy", [np.float32, np.float64])
    def test_training_step_stays_in_policy_dtype(self, policy):
        with use_float_dtype(policy):
            rng = np.random.default_rng(3)
            hypervectors = (
                rng.integers(0, 2, size=(48, 128)).astype(np.int8) * 2 - 1
            )
            labels = rng.integers(0, 4, size=48)
            model = SingleLayerBNN(
                dimension=128, num_classes=4, dropout_rate=0.3, seed=0
            )
            config = DEFAULT_CONFIG.with_overrides(
                epochs=1, batch_size=16, validation_fraction=0.0
            )
            trainer = BNNTrainer(model, config, seed=0)

            # Parameters are initialised in the policy dtype.
            assert model.linear.weight.value.dtype == policy

            # Every intermediate of one forward/backward stays in policy dtype.
            inputs = as_float(hypervectors)
            assert inputs.dtype == policy
            logits = model.forward(inputs)
            assert logits.dtype == policy
            loss, grad_logits = cross_entropy_from_logits(logits, labels)
            assert grad_logits.dtype == policy
            model.zero_grad()
            # The input is encoded data: backward returns no input gradient.
            assert model.backward(grad_logits) is None
            assert model.linear.weight.grad.dtype == policy

            # A full optimiser epoch leaves weights and Adam state in policy dtype.
            trainer.train(hypervectors, labels)
            assert model.linear.weight.value.dtype == policy
            for moment_store in (
                trainer.optimizer._first_moment,
                trainer.optimizer._second_moment,
            ):
                for moment in moment_store.values():
                    assert moment.dtype == policy

    @pytest.mark.parametrize("policy", [np.float32, np.float64])
    def test_nonbinary_training_stays_in_policy_dtype(self, policy, monkeypatch):
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
        with use_float_dtype(policy):
            rng = np.random.default_rng(4)
            hypervectors = rng.integers(0, 2, size=(48, 128)).astype(np.int8) * 2 - 1
            labels = rng.integers(0, 4, size=48)
            config = DEFAULT_CONFIG.with_overrides(epochs=2, batch_size=16)
            classifier = NonBinaryLeHDCClassifier(config, seed=0).fit(hypervectors, labels)
        assert classifier.nonbinary_class_hypervectors_.dtype == policy
        assert {kind for kind, _ in seen} == {"input", "grad", "moment"}
        assert {dtype for _, dtype in seen} == {np.dtype(policy)}

    def test_float64_hypervectors_are_not_downcast(self):
        """Pre-cast float64 inputs keep their precision (no silent down-cast)."""
        inputs = np.ones((4, 16), dtype=np.float64)
        model = SingleLayerBNN(dimension=16, num_classes=2, dropout_rate=0.0, seed=0)
        # float64 inputs against float32 weights promote to float64 — the
        # caller's precision is never reduced behind their back.
        assert model.forward(inputs).dtype == np.float64
