"""AdaptHD-style retraining with an adaptive learning rate (the paper's Ref. [6]).

Imani et al.'s AdaptHD adapts the retraining step size instead of using a
fixed ``alpha``.  The paper summarises the idea as making the rate depend on
"the validation error rate or the difference between the similarities of
``cosine(En(x), c_correct)`` and ``cosine(En(x), c_wrong)``".  This
implementation provides both variants:

* ``mode="data"`` - per-sample adaptive rate proportional to the similarity
  gap between the predicted wrong class and the true class (samples that are
  badly misclassified get a larger update);
* ``mode="iteration"`` - per-iteration adaptive rate proportional to the
  current training error rate (early noisy iterations take large steps, later
  ones refine).

It is included as an additional comparator for the benchmark harness; the
paper discusses it qualitatively in Sec. 3.2 when arguing that even adaptive
heuristics use incomplete similarity information.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.retraining import RetrainingHDC
from repro.utils.rng import SeedLike


class AdaptHDC(RetrainingHDC):
    """Retraining with an adaptive (data- or iteration-dependent) learning rate.

    Parameters
    ----------
    mode:
        ``"data"`` (per-sample similarity-gap scaling) or ``"iteration"``
        (per-iteration error-rate scaling).
    max_learning_rate:
        Upper bound on the adaptive rate (the AdaptHD papers sweep a small
        integer range; the exact cap only sets the scale of updates).
    Other parameters are inherited from :class:`RetrainingHDC`.
    """

    def __init__(
        self,
        iterations: int = 150,
        max_learning_rate: float = 1.0,
        mode: str = "data",
        epsilon: float = 1e-4,
        shuffle: bool = True,
        tie_break: str = "random",
        seed: SeedLike = None,
    ):
        if mode not in ("data", "iteration"):
            raise ValueError(f"mode must be 'data' or 'iteration', got {mode!r}")
        super().__init__(
            iterations=iterations,
            learning_rate=max_learning_rate,
            first_iteration_learning_rate=max_learning_rate,
            epsilon=epsilon,
            shuffle=shuffle,
            tie_break=tie_break,
            seed=seed,
        )
        self.mode = mode
        self.max_learning_rate = float(max_learning_rate)
        self._current_error_rate = 1.0

    def fit(
        self,
        hypervectors,
        labels,
        validation_hypervectors=None,
        validation_labels=None,
        packed_train=None,
    ):
        self._current_error_rate = 1.0
        result = super().fit(
            hypervectors,
            labels,
            validation_hypervectors=validation_hypervectors,
            validation_labels=validation_labels,
            packed_train=packed_train,
        )
        return result

    def _epoch_updates(self, scores, labels, predicted, visit, alpha, dimension):
        """Per-sample adaptive rates for one pass.

        Both rate rules are pass-constant or depend only on the (fixed)
        epoch scores, so the seed's per-sample rates vectorise exactly; the
        update layout mirrors the base class (``+rate`` true, ``-rate``
        predicted, in visit order).
        """
        if self.mode == "iteration":
            # The error estimate is frozen within a pass (the history only
            # grows after it), so the per-sample rule collapses to one rate.
            if self.history_ is not None and self.history_.train_accuracy:
                self._current_error_rate = 1.0 - self.history_.train_accuracy[-1]
            rates = np.full(
                visit.size, self.max_learning_rate * max(self._current_error_rate, 0.05)
            )
        else:
            gaps = (
                scores[visit, predicted[visit]] - scores[visit, labels[visit]]
            ) / (2.0 * dimension)
            rates = self.max_learning_rate * np.clip(gaps * 2.0 + 0.1, 0.05, 1.0)
        count = visit.size
        class_indices = np.empty(2 * count, dtype=np.intp)
        class_indices[0::2] = labels[visit]
        class_indices[1::2] = predicted[visit]
        coefficients = np.empty(2 * count, dtype=np.float64)
        coefficients[0::2] = rates
        coefficients[1::2] = -rates
        sample_rows = np.repeat(visit, 2)
        return class_indices, coefficients, sample_rows


__all__ = ["AdaptHDC"]
