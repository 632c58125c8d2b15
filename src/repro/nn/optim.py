"""Adam, the optimiser LeHDC trains with.

The paper selects Adam because it outperforms SGD-based algorithms on BNN
optimisation (Sec. 4, citing Liu et al. 2021).  Weight decay is implemented
in its *decoupled* form (applied directly to the parameter value,
AdamW-style) and in the classical *coupled* form (added to the gradient),
because Eq. 10 writes the L2 penalty as part of the loss (coupled) while most
BNN code-bases apply it decoupled; the ablation bench compares the two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimiser: holds the parameter list, learning rate, weight decay.

    All optimiser state (the Adam moments) is allocated with
    ``np.zeros_like`` and every update mixes only Python scalars into the
    arrays, so the step runs entirely in each parameter's own dtype — a
    ``float32`` parameter (the kernel layer's default policy) is never
    silently up-cast to ``float64`` during training.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = True,
    ):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.learning_rate = float(learning_rate)
        self.weight_decay = float(weight_decay)
        self.decoupled_weight_decay = bool(decoupled_weight_decay)

    # ------------------------------------------------------------------ api
    def step(self) -> None:
        """Apply one update using the gradients currently stored on the parameters."""
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay and not self.decoupled_weight_decay:
                grad = grad + self.weight_decay * parameter.value
            update = self._compute_update(parameter, grad)
            parameter.value -= update
            if self.weight_decay and self.decoupled_weight_decay:
                parameter.value -= (
                    self.learning_rate * self.weight_decay * parameter.value
                )

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def set_learning_rate(self, learning_rate: float) -> None:
        """Change the learning rate (used by LR schedules)."""
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def _compute_update(self, parameter: Parameter, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with bias correction.

    This is the optimiser LeHDC uses to accumulate small gradients on the
    latent (non-binary) class hypervectors.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
        decoupled_weight_decay: bool = True,
    ):
        super().__init__(
            parameters, learning_rate, weight_decay, decoupled_weight_decay
        )
        for name, value in (("beta1", beta1), ("beta2", beta2)):
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}
        self._per_parameter_step: Dict[int, int] = {}

    def _compute_update(self, parameter: Parameter, grad: np.ndarray) -> np.ndarray:
        key = id(parameter)
        first = self._first_moment.get(key)
        second = self._second_moment.get(key)
        if first is None:
            first = np.zeros_like(parameter.value)
            second = np.zeros_like(parameter.value)
        step = self._per_parameter_step.get(key, 0) + 1
        first = self.beta1 * first + (1.0 - self.beta1) * grad
        second = self.beta2 * second + (1.0 - self.beta2) * (grad**2)
        self._first_moment[key] = first
        self._second_moment[key] = second
        self._per_parameter_step[key] = step
        first_hat = first / (1.0 - self.beta1**step)
        second_hat = second / (1.0 - self.beta2**step)
        return self.learning_rate * first_hat / (np.sqrt(second_hat) + self.epsilon)


__all__ = ["Optimizer", "Adam"]
