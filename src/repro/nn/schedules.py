"""The learning-rate schedule.

The paper states "the learning rate will decay during the training, if the
training loss increasing is detected" (Sec. 5.2).  That behaviour is
:class:`ReduceOnLossIncrease`, at a fixed factor and floor.
"""

from __future__ import annotations

from repro.nn.optim import Adam

#: Multiplicative decay applied to the learning rate.
DECAY_FACTOR = 0.5
#: Floor below which the schedule stops decaying.
MIN_LEARNING_RATE = 1e-6


class ReduceOnLossIncrease:
    """Decay the learning rate whenever the epoch training loss goes up.

    Every epoch whose loss is no new best multiplies the rate by
    :data:`DECAY_FACTOR` (a patience of one epoch), never below
    :data:`MIN_LEARNING_RATE`; a rate that starts below that floor is left
    unchanged.

    Parameters
    ----------
    optimizer:
        The optimiser whose learning rate is adjusted in place.
    """

    def __init__(self, optimizer: Adam):
        self.optimizer = optimizer
        self._best_loss = float("inf")

    def step(self, epoch_loss: float) -> float:
        """Report the epoch loss; decay unless it is a new best.

        Returns the (possibly updated) learning rate.
        """
        if epoch_loss < self._best_loss:
            self._best_loss = epoch_loss
        else:
            rate = self.optimizer.learning_rate
            # A decay never raises the rate: one already under the floor
            # stays where it is.
            floor = min(rate, MIN_LEARNING_RATE)
            self.optimizer.set_learning_rate(max(rate * DECAY_FACTOR, floor))
        return self.optimizer.learning_rate


__all__ = ["ReduceOnLossIncrease"]
