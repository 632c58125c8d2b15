"""Unit tests for repro.nn.module."""

import numpy as np
import pytest

from repro.core.bnn_model import SingleLayerNetwork
from repro.nn.layers import Linear
from repro.nn.module import Module, Parameter


class TestParameter:
    def test_integer_value_cast_to_float32(self):
        parameter = Parameter(np.array([1, 2, 3]))
        assert parameter.value.dtype == np.float32

    def test_float_value_dtype_preserved(self):
        assert Parameter(np.zeros(3, dtype=np.float64)).value.dtype == np.float64
        assert Parameter(np.zeros(3, dtype=np.float32)).value.dtype == np.float32

    def test_add_grad_accumulates(self):
        parameter = Parameter(np.zeros(3))
        parameter.add_grad(np.ones(3))
        parameter.add_grad(np.ones(3))
        np.testing.assert_array_equal(parameter.grad, [2, 2, 2])

    def test_add_grad_shape_check(self):
        parameter = Parameter(np.zeros(3), name="w")
        with pytest.raises(ValueError):
            parameter.add_grad(np.ones(4))

    def test_zero_grad(self):
        parameter = Parameter(np.zeros(2))
        parameter.add_grad(np.ones(2))
        parameter.zero_grad()
        assert parameter.grad is None


class TestModule:
    def test_parameters_collects_children(self):
        linear = Linear(4, 3, seed=0)
        model = SingleLayerNetwork(linear, dropout_rate=0.5, seed=0)
        # The dropout child has none; the linear child has its weight.
        assert model.parameters() == [linear.weight]

    def test_train_eval_propagates(self):
        model = SingleLayerNetwork(Linear(2, 2, seed=0), dropout_rate=0.5, seed=0)
        model.eval()
        assert not model.dropout.training and not model.linear.training
        model.train()
        assert model.dropout.training and model.linear.training

    def test_zero_grad_clears_all(self):
        layer = Linear(3, 2, seed=0)
        layer.forward(np.ones((1, 3)))
        layer.backward(np.ones((1, 2)))
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_base_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            Module().backward(np.zeros(1))
