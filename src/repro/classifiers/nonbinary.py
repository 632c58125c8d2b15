"""Non-binary HDC classifier (the "perceptron view" of Sec. 3.1).

Non-binary HDC keeps integer class hypervectors (the raw accumulated
centroids, without the final ``sgn``) and classifies by cosine similarity.
The paper notes the BNN equivalence extends to this case — the model becomes
a plain single-layer perceptron with non-binary weights — and that non-binary
HDC carries richer information at a higher hardware cost.  It is included as
an additional comparator and for tests of the binary/non-binary relationship.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import HDCClassifierBase, cosine_scores
from repro.hdc.hypervector import sign_with_ties
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fitted, check_matrix


class NonBinaryHDC(HDCClassifierBase):
    """Centroid HDC with non-binarised class hypervectors and cosine scoring.

    Parameters
    ----------
    retraining_iterations:
        Optional number of perceptron-style retraining passes applied to the
        non-binary centroids after the initial accumulation (0 = plain
        centroids).
    learning_rate:
        Step size for those retraining passes.
    seed:
        Seed or generator controlling sample order during retraining.
    """

    def __init__(
        self,
        retraining_iterations: int = 0,
        learning_rate: float = 1.0,
        seed: SeedLike = None,
    ):
        super().__init__(seed=seed)
        if retraining_iterations < 0:
            raise ValueError(
                f"retraining_iterations must be >= 0, got {retraining_iterations}"
            )
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.retraining_iterations = int(retraining_iterations)
        self.learning_rate = float(learning_rate)
        self.nonbinary_class_hypervectors_: Optional[np.ndarray] = None

    def fit(self, hypervectors: np.ndarray, labels: np.ndarray) -> "NonBinaryHDC":
        """Accumulate non-binary centroids and optionally retrain them."""
        hypervectors, labels, num_classes = self._validate_fit_inputs(
            hypervectors, labels
        )
        dimension = hypervectors.shape[1]
        centroids = np.zeros((num_classes, dimension), dtype=np.float64)
        np.add.at(centroids, labels, hypervectors.astype(np.float64))

        samples = hypervectors.astype(np.float64)
        for _ in range(self.retraining_iterations):
            order = self.rng.permutation(samples.shape[0])
            for index in order:
                sample = samples[index]
                true_label = labels[index]
                scores = cosine_scores(sample[None, :], centroids)[0]
                predicted = int(np.argmax(scores))
                if predicted != true_label:
                    centroids[true_label] += self.learning_rate * sample
                    centroids[predicted] -= self.learning_rate * sample

        self.nonbinary_class_hypervectors_ = centroids
        # Also expose the binarised form so the non-binary model can be dropped
        # into binary inference pipelines and compared head-to-head.
        self.class_hypervectors_ = sign_with_ties(centroids, rng=self.rng)
        self.num_classes_ = num_classes
        return self

    # ------------------------------------------------------------ inference
    def decision_scores(self, hypervectors: np.ndarray) -> np.ndarray:
        """Cosine similarity of each sample to each non-binary centroid."""
        check_fitted(self, "nonbinary_class_hypervectors_")
        hypervectors = check_matrix(
            hypervectors,
            "hypervectors",
            n_columns=self.nonbinary_class_hypervectors_.shape[1],
        )
        return cosine_scores(
            hypervectors.astype(np.float64), self.nonbinary_class_hypervectors_
        )


__all__ = ["NonBinaryHDC"]
