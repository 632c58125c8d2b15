"""Learning-based training for *non-binary* HDC (the paper's footnote 1).

The paper's equivalence argument "also applies to non-binary HDC models by
changing the BNN to a wide single-layer neural network with non-binary
weights" — i.e. a plain perceptron/softmax-regression layer over the encoded
hypervector, whose trained real-valued weight columns become the non-binary
class hypervectors and whose inference measure is cosine similarity.

:class:`NonBinaryLeHDCClassifier` is that variant: a
:class:`~repro.core.lehdc.LeHDCClassifier` whose network pairs dropout with a
real-weight :class:`~repro.nn.layers.Linear`, so the same loop
(:meth:`~repro.core.bnn_model.BNNTrainer.train`) trains it with the same
recipe (Adam, cross-entropy, weight decay, dropout) minus the binarisation.
It serves two purposes in the reproduction:

* it completes the paper's claim space (binary and non-binary HDC both map to
  single-layer networks trainable in a principled way);
* it provides an informative upper reference in experiments: its binarised
  weights (``class_hypervectors_``) show how much accuracy the binary
  constraint itself costs, separating the effect of the training strategy
  from the effect of quantisation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import cosine_scores
from repro.core.bnn_model import SingleLayerNetwork
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.hdc.hypervector import sign_with_ties
from repro.nn.layers import Linear
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fitted, check_matrix


class NonBinaryLeHDCClassifier(LeHDCClassifier):
    """Non-binary HDC classifier trained as a single-layer (real-weight) network.

    Parameters
    ----------
    config:
        The same hyper-parameter bundle as binary LeHDC; ``latent_clip`` is
        ignored (there are no latent weights — the real weights *are* the
        model).
    seed:
        Seed or generator for initialisation, dropout, batching, the
        validation split and ``sgn(0)`` tie-breaks of the binarisation.

    Attributes
    ----------
    nonbinary_class_hypervectors_:
        ``(K, D)`` ``float32`` class hypervectors after :meth:`fit`.
    class_hypervectors_:
        Their binarisation (``sgn``), so the model can also be dropped into a
        binary inference datapath for comparison.
    history_:
        Per-epoch training history; validation accuracy is measured by cosine
        similarity.
    """

    def __init__(self, config: Optional[LeHDCConfig] = None, seed: SeedLike = None):
        super().__init__(config=config, seed=seed)
        self.nonbinary_class_hypervectors_: Optional[np.ndarray] = None

    def _build_model(self, dimension: int, num_classes: int) -> SingleLayerNetwork:
        linear = Linear(dimension, num_classes, seed=self.rng)
        return SingleLayerNetwork(linear, dropout_rate=self.config.dropout_rate, seed=self.rng)

    def _read_class_hypervectors(self, model: SingleLayerNetwork) -> None:
        self.nonbinary_class_hypervectors_ = model.class_hypervectors
        self.class_hypervectors_ = sign_with_ties(
            self.nonbinary_class_hypervectors_, rng=self.rng
        )

    # ------------------------------------------------------------ inference
    def decision_scores(self, hypervectors: np.ndarray) -> np.ndarray:
        """Cosine similarity to the non-binary class hypervectors (Sec. 3.1)."""
        check_fitted(self, "nonbinary_class_hypervectors_")
        hypervectors = check_matrix(
            hypervectors,
            "hypervectors",
            n_columns=self.nonbinary_class_hypervectors_.shape[1],
        )
        return cosine_scores(
            hypervectors.astype(np.float64), self.nonbinary_class_hypervectors_
        )


__all__ = ["NonBinaryLeHDCClassifier"]
