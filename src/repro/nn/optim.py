"""Adam, the optimiser LeHDC trains with.

The paper selects Adam because it outperforms SGD-based algorithms on BNN
optimisation (Sec. 4, citing Liu et al. 2021), at Kingma & Ba's moment
decay rates and epsilon.  Weight decay is implemented in its *decoupled*
form (applied directly to the parameter value, AdamW-style) and in the
classical *coupled* form (added to the gradient), because Eq. 10 writes the
L2 penalty as part of the loss (coupled) while most BNN code-bases apply it
decoupled; the ablation bench compares the two.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.nn.module import Parameter

#: First- and second-moment decay rates and the denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam optimiser (Kingma & Ba) with bias correction.

    This is the optimiser LeHDC uses to accumulate small gradients on the
    latent (non-binary) class hypervectors.  Its moments are allocated with
    ``np.zeros_like`` and every update mixes only Python scalars into the
    arrays, so the step runs entirely in each parameter's own dtype — a
    ``float32`` parameter is never silently up-cast to ``float64`` during
    training.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 1e-3,
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
        self._first_moment: Dict[int, np.ndarray] = {}
        self._second_moment: Dict[int, np.ndarray] = {}
        self._per_parameter_step: Dict[int, int] = {}

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
        """Change the learning rate (used by the LR schedule)."""
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    def _compute_update(self, parameter: Parameter, grad: np.ndarray) -> np.ndarray:
        key = id(parameter)
        first = self._first_moment.get(key)
        second = self._second_moment.get(key)
        if first is None:
            first = np.zeros_like(parameter.value)
            second = np.zeros_like(parameter.value)
        step = self._per_parameter_step.get(key, 0) + 1
        first = BETA1 * first + (1.0 - BETA1) * grad
        second = BETA2 * second + (1.0 - BETA2) * (grad**2)
        self._first_moment[key] = first
        self._second_moment[key] = second
        self._per_parameter_step[key] = step
        first_hat = first / (1.0 - BETA1**step)
        second_hat = second / (1.0 - BETA2**step)
        return self.learning_rate * first_hat / (np.sqrt(second_hat) + EPSILON)


__all__ = ["Adam"]
