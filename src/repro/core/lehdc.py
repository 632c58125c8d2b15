"""LeHDCClassifier: the learning-based HDC training strategy (Sec. 4).

This classifier is a drop-in replacement for any of the heuristic strategies
in :mod:`repro.classifiers`: it consumes the same encoded sample hypervectors,
produces the same kind of binary class hypervectors, and its inference path is
the inherited nearest-Hamming rule.  The only difference — the paper's entire
contribution — is *how* the class hypervectors are found: by training the
equivalent single-layer BNN with Adam, cross-entropy, weight decay and
dropout, then reading the binarised weights back out.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import HDCClassifierBase
from repro.core.bnn_model import (
    BNNTrainer,
    SingleLayerBNN,
    SingleLayerNetwork,
    TrainingHistory,
)
from repro.core.configs import DEFAULT_CONFIG, LeHDCConfig
from repro.hdc.hypervector import BIPOLAR_DTYPE
from repro.utils.rng import SeedLike


class LeHDCClassifier(HDCClassifierBase):
    """Binary HDC classifier whose class hypervectors are trained as BNN weights.

    Parameters
    ----------
    config:
        Training hyper-parameters (defaults to the paper's MNIST row of
        Table 2); use :func:`repro.core.configs.get_paper_config` to pick the
        per-dataset paper settings.
    seed:
        Seed or generator controlling weight initialisation, dropout masks and
        mini-batch order.

    Attributes
    ----------
    class_hypervectors_:
        ``(K, D)`` int8 binary class hypervectors after :meth:`fit`.
    latent_class_hypervectors_:
        ``(K, D)`` float latent weights ``C_nb``; kept for inspection, never
        used at inference.
    history_:
        :class:`~repro.core.bnn_model.TrainingHistory` of the fit.
    model_:
        The trained network.
    """

    def __init__(self, config: Optional[LeHDCConfig] = None, seed: SeedLike = None):
        super().__init__(seed=seed)
        self.config = config if config is not None else DEFAULT_CONFIG
        self.history_: Optional[TrainingHistory] = None
        self.latent_class_hypervectors_: Optional[np.ndarray] = None
        self.model_: Optional[SingleLayerNetwork] = None

    def fit(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        validation_hypervectors: Optional[np.ndarray] = None,
        validation_labels: Optional[np.ndarray] = None,
        epochs: Optional[int] = None,
    ) -> "LeHDCClassifier":
        """Train class hypervectors by optimising the equivalent network.

        Parameters
        ----------
        hypervectors, labels:
            Encoded training samples and integer class labels.
        validation_hypervectors, validation_labels:
            Optional held-out set tracked in ``history_`` (used by the
            ablation and trajectory benchmarks).  If omitted and
            ``config.validation_fraction > 0``, a split of the training set is
            carved out automatically.
        epochs:
            Optional override of ``config.epochs``.
        """
        hypervectors, labels, num_classes = self._validate_fit_inputs(
            hypervectors, labels
        )
        if (
            validation_hypervectors is None
            and self.config.validation_fraction > 0.0
            and hypervectors.shape[0] >= 10
        ):
            (
                hypervectors,
                labels,
                validation_hypervectors,
                validation_labels,
            ) = self._split_validation(hypervectors, labels)

        model = self._build_model(hypervectors.shape[1], num_classes)
        trainer = BNNTrainer(model, self.config, seed=self.rng)
        self.history_ = trainer.train(
            hypervectors,
            labels,
            validation_hypervectors=validation_hypervectors,
            validation_labels=validation_labels,
            epochs=epochs,
        )

        self.model_ = model
        self._read_class_hypervectors(model)
        self.num_classes_ = num_classes
        return self

    def _build_model(self, dimension: int, num_classes: int) -> SingleLayerNetwork:
        """The binary network of Fig. 4, initialised from this classifier's RNG."""
        return SingleLayerBNN(
            dimension=dimension,
            num_classes=num_classes,
            dropout_rate=self.config.dropout_rate,
            latent_clip=self.config.latent_clip,
            init_scale=self.config.init_scale,
            seed=self.rng,
        )

    def _read_class_hypervectors(self, model: SingleLayerNetwork) -> None:
        """Publish the trained weights as this classifier's class hypervectors."""
        self.class_hypervectors_ = model.class_hypervectors.astype(BIPOLAR_DTYPE)
        self.latent_class_hypervectors_ = model.latent_class_hypervectors

    def _split_validation(self, hypervectors: np.ndarray, labels: np.ndarray):
        """Hold out ``config.validation_fraction`` of the data, stratification-free."""
        num_samples = hypervectors.shape[0]
        num_validation = max(1, int(round(num_samples * self.config.validation_fraction)))
        order = self.rng.permutation(num_samples)
        validation_indices = order[:num_validation]
        train_indices = order[num_validation:]
        return (
            hypervectors[train_indices],
            labels[train_indices],
            hypervectors[validation_indices],
            labels[validation_indices],
        )


__all__ = ["LeHDCClassifier"]
