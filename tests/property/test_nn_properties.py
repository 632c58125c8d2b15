"""Property-based tests for the NumPy NN substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.layers import BinaryLinear, Dropout
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax
from repro.nn.module import Parameter
from repro.nn.optim import Adam

FINITE_FLOATS = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 8)), elements=FINITE_FLOATS))
def test_softmax_rows_are_distributions(logits):
    probabilities = softmax(logits)
    assert np.all(probabilities >= 0.0)
    np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 6)), elements=FINITE_FLOATS),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_cross_entropy_gradient_rows_sum_to_zero(logits, seed):
    labels = np.random.default_rng(seed).integers(0, logits.shape[1], size=logits.shape[0])
    loss, grad = cross_entropy_from_logits(logits, labels)
    assert np.isfinite(loss)
    assert loss >= 0.0
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-10)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20), st.integers(2, 10))
def test_one_hot_rows_have_single_one(num_samples, num_classes):
    labels = np.arange(num_samples) % num_classes
    encoded = one_hot(labels, num_classes)
    np.testing.assert_array_equal(encoded.sum(axis=1), np.ones(num_samples))
    np.testing.assert_array_equal(np.argmax(encoded, axis=1), labels)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=32),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_binary_linear_weights_always_bipolar(in_features, out_features, seed):
    layer = BinaryLinear(in_features, out_features, seed=seed)
    assert set(np.unique(layer.binary_weight)) <= {-1.0, 1.0}
    # After an arbitrary latent update the binarisation is still bipolar.
    layer.weight.value += np.random.default_rng(seed).normal(size=layer.weight.shape)
    assert set(np.unique(layer.binary_weight)) <= {-1.0, 1.0}


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_dropout_eval_identity_and_train_masking(rate, seed):
    layer = Dropout(rate, seed=seed)
    inputs = np.random.default_rng(seed).normal(size=(8, 32))
    layer.eval()
    np.testing.assert_array_equal(layer.forward(inputs), inputs)
    layer.train()
    outputs = layer.forward(inputs)
    # Every surviving entry is the input scaled by 1/(1-rate).
    survivors = outputs != 0.0
    if rate > 0.0:
        np.testing.assert_allclose(
            outputs[survivors], inputs[survivors] / (1.0 - rate), atol=1e-12
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_adam_step_bounded_by_learning_rate_scale(seed):
    # Each Adam update coordinate is bounded by ~lr / (1 - beta1) in magnitude;
    # with default betas the first-step bound is simply the learning rate.
    rng = np.random.default_rng(seed)
    parameter = Parameter(rng.normal(size=16))
    before = parameter.value.copy()
    optimizer = Adam([parameter], learning_rate=0.01)
    parameter.add_grad(rng.normal(size=16) * 100.0)
    optimizer.step()
    assert np.max(np.abs(parameter.value - before)) <= 0.011
