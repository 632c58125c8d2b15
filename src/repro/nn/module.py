"""Parameter container and module base class.

A :class:`Parameter` couples a value array with its gradient accumulator.  A
:class:`Module` is anything with parameters, a ``forward`` and a ``backward``;
modules can be nested and expose all parameters of their children through
:meth:`Module.parameters`, which is the list optimisers consume.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.kernels.linear import as_float


class Parameter:
    """A trainable array plus its gradient.

    Attributes
    ----------
    value:
        The current parameter value.  Floating input keeps its dtype;
        anything else is cast to :data:`repro.kernels.linear.FLOAT_DTYPE`
        (``float32``).
    grad:
        The gradient accumulated by the most recent backward pass, or ``None``
        if no backward pass has run since the last :meth:`zero_grad`.
    name:
        Optional human-readable name used in error messages and debugging.
    """

    def __init__(self, value: np.ndarray, name: str = "parameter"):
        self.value = as_float(value)
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self):
        """Shape of the underlying value array."""
        return self.value.shape

    def zero_grad(self) -> None:
        """Forget the accumulated gradient."""
        self.grad = None

    def add_grad(self, grad: np.ndarray) -> None:
        """Accumulate *grad* in the parameter's dtype (summing if present)."""
        grad = np.asarray(grad, dtype=self.value.dtype)
        if grad.shape != self.value.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name} shape {self.value.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.value.shape})"


class Module:
    """Base class for layers and models.

    Subclasses register parameters as attributes of type :class:`Parameter`
    (or register child modules as attributes of type :class:`Module`) and
    implement :meth:`forward` and :meth:`backward`.  Training/eval mode is
    tracked so layers like dropout can switch behaviour.
    """

    def __init__(self) -> None:
        self.training = True

    # -------------------------------------------------------------- params
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children, depth-first."""
        found: List[Parameter] = []
        for attribute in vars(self).values():
            if isinstance(attribute, Parameter):
                found.append(attribute)
            elif isinstance(attribute, Module):
                found.extend(attribute.parameters())
        return found

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ---------------------------------------------------------------- mode
    def train(self) -> "Module":
        """Switch this module and its children to training mode."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Switch this module and its children to evaluation mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for attribute in vars(self).values():
            if isinstance(attribute, Module):
                attribute._set_mode(training)

    # ------------------------------------------------------------- compute
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the module output for *inputs*."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray):
        """Accumulate parameter gradients from *grad_output*.

        The linear layers, and the networks built on them, return nothing:
        their input is encoded data, which needs no gradient.
        """
        raise NotImplementedError


__all__ = ["Parameter", "Module"]
