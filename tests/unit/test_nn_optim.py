"""Unit tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam


def make_parameter(value):
    parameter = Parameter(np.array(value, dtype=np.float64))
    return parameter


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        parameter = make_parameter([0.0])
        optimizer = Adam([parameter], learning_rate=0.01)
        parameter.add_grad(np.array([5.0]))
        optimizer.step()
        # With bias correction the first Adam step has magnitude ~= learning rate.
        assert abs(parameter.value[0] + 0.01) < 1e-6

    def test_converges_on_quadratic(self):
        parameter = make_parameter([5.0])
        optimizer = Adam([parameter], learning_rate=0.1)
        for _ in range(500):
            parameter.zero_grad()
            parameter.add_grad(2.0 * parameter.value)  # d/dx of x^2
            optimizer.step()
        assert abs(parameter.value[0]) < 0.05

    def test_per_parameter_state_is_independent(self):
        a = make_parameter([0.0])
        b = make_parameter([0.0])
        optimizer = Adam([a, b], learning_rate=0.1)
        a.add_grad(np.array([1.0]))
        optimizer.step()
        # b received no gradient and must not move.
        np.testing.assert_allclose(b.value, [0.0])

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            Adam([make_parameter([1.0])], beta1=1.0)
        with pytest.raises(ValueError):
            Adam([make_parameter([1.0])], beta2=-0.1)
        with pytest.raises(ValueError):
            Adam([make_parameter([1.0])], epsilon=0.0)

    def test_set_learning_rate(self):
        optimizer = Adam([make_parameter([1.0])], learning_rate=0.1)
        optimizer.set_learning_rate(0.01)
        assert optimizer.learning_rate == 0.01
        with pytest.raises(ValueError):
            optimizer.set_learning_rate(0.0)

    def test_coupled_weight_decay_adds_to_gradient(self):
        # Eq. 10 literally: the penalty joins the gradient, so even a zero
        # loss gradient takes a full first Adam step of size ~lr.
        parameter = make_parameter([1.0])
        parameter.add_grad(np.array([0.0]))
        Adam(
            [parameter], learning_rate=0.1, weight_decay=0.5, decoupled_weight_decay=False
        ).step()
        np.testing.assert_allclose(parameter.value, [1.0 - 0.1], rtol=1e-6)

    def test_decoupled_weight_decay_shrinks_value(self):
        # AdamW style: a zero gradient moves nothing through the moments and
        # the value shrinks by lr * weight_decay.
        parameter = make_parameter([1.0])
        parameter.add_grad(np.array([0.0]))
        Adam(
            [parameter], learning_rate=0.1, weight_decay=0.5, decoupled_weight_decay=True
        ).step()
        np.testing.assert_allclose(parameter.value, [1.0 * (1.0 - 0.1 * 0.5)])

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([], learning_rate=0.1)
        with pytest.raises(ValueError):
            Adam([make_parameter([1.0])], learning_rate=0.0)
        with pytest.raises(ValueError):
            Adam([make_parameter([1.0])], learning_rate=0.1, weight_decay=-1.0)

    def test_zero_grad(self):
        parameter = make_parameter([1.0])
        optimizer = Adam([parameter], learning_rate=0.1)
        parameter.add_grad(np.array([1.0]))
        optimizer.zero_grad()
        assert parameter.grad is None
