"""Learning-rate schedules.

The paper states "the learning rate will decay during the training, if the
training loss increasing is detected" (Sec. 5.2).  That behaviour is
:class:`ReduceOnLossIncrease`; :class:`ConstantSchedule` stands in when a
configuration turns the decay off (``lr_decay_factor=1.0``).
"""

from __future__ import annotations

from repro.nn.optim import Optimizer
from repro.utils.validation import check_positive_int


class ConstantSchedule:
    """Keeps the learning rate fixed; exists so trainers can treat schedules uniformly."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer

    def step(self, epoch_loss: float) -> float:
        """No-op; returns the current learning rate."""
        return self.optimizer.learning_rate


class ReduceOnLossIncrease:
    """Decay the learning rate whenever the epoch training loss goes up.

    Parameters
    ----------
    optimizer:
        The optimiser whose learning rate is adjusted in place.
    factor:
        Multiplicative decay applied on a detected increase.
    patience:
        Number of consecutive increasing epochs tolerated before decaying.
    min_learning_rate:
        Floor below which the schedule stops decaying; a rate that starts
        below it is left unchanged.
    """

    def __init__(
        self,
        optimizer: Optimizer,
        factor: float = 0.5,
        patience: int = 1,
        min_learning_rate: float = 1e-6,
    ):
        if not (0.0 < factor < 1.0):
            raise ValueError(f"factor must be in (0, 1), got {factor}")
        if min_learning_rate <= 0:
            raise ValueError(
                f"min_learning_rate must be positive, got {min_learning_rate}"
            )
        self.optimizer = optimizer
        self.factor = factor
        self.patience = check_positive_int(patience, "patience")
        self.min_learning_rate = min_learning_rate
        self._best_loss = float("inf")
        self._bad_epochs = 0

    def step(self, epoch_loss: float) -> float:
        """Report the epoch loss; decay if it increased for *patience* epochs.

        Returns the (possibly updated) learning rate.
        """
        if epoch_loss < self._best_loss:
            self._best_loss = epoch_loss
            self._bad_epochs = 0
        else:
            self._bad_epochs += 1
            if self._bad_epochs >= self.patience:
                rate = self.optimizer.learning_rate
                # A decay never raises the rate: one already under the floor
                # stays where it is.
                floor = min(rate, self.min_learning_rate)
                self.optimizer.set_learning_rate(max(rate * self.factor, floor))
                self._bad_epochs = 0
        return self.optimizer.learning_rate


__all__ = ["ConstantSchedule", "ReduceOnLossIncrease"]
