"""Learning-based training for *non-binary* HDC (the paper's footnote 1).

The paper's equivalence argument "also applies to non-binary HDC models by
changing the BNN to a wide single-layer neural network with non-binary
weights" — i.e. a plain perceptron/softmax-regression layer over the encoded
hypervector, whose trained real-valued weight columns become the non-binary
class hypervectors and whose inference measure is cosine similarity.

:class:`NonBinaryLeHDCClassifier` implements that variant with the same
training recipe as binary LeHDC (Adam, cross-entropy, weight decay, dropout)
minus the binarisation.  It serves two purposes in the reproduction:

* it completes the paper's claim space (binary and non-binary HDC both map to
  single-layer networks trainable in a principled way);
* it provides an informative upper reference in experiments: binarising its
  weights (``to_binary()``) shows how much accuracy the binary constraint
  itself costs, separating the effect of the training strategy from the effect
  of quantisation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import HDCClassifierBase
from repro.core.bnn_model import TrainingHistory
from repro.core.configs import DEFAULT_CONFIG, LeHDCConfig
from repro.hdc.hypervector import sign_with_ties
from repro.nn.layers import Dropout, Linear
from repro.nn.losses import cross_entropy_from_logits
from repro.nn.optim import SGD, Adam, Momentum
from repro.nn.schedules import ConstantSchedule, ReduceOnLossIncrease
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fitted, check_matrix


class NonBinaryLeHDCClassifier(HDCClassifierBase):
    """Non-binary HDC classifier trained as a single-layer (real-weight) network.

    Parameters
    ----------
    config:
        The same hyper-parameter bundle as binary LeHDC; ``latent_clip`` is
        ignored (there are no latent weights — the real weights *are* the
        model).
    seed:
        Seed or generator for initialisation, dropout and batching.

    Attributes
    ----------
    nonbinary_class_hypervectors_:
        ``(K, D)`` class hypervectors in the policy float dtype after :meth:`fit`.
    class_hypervectors_:
        Their binarisation (``sgn``), so the model can also be dropped into a
        binary inference datapath for comparison.
    history_:
        Per-epoch training history.
    """

    def __init__(self, config: Optional[LeHDCConfig] = None, seed: SeedLike = None):
        super().__init__(seed=seed)
        self.config = config if config is not None else DEFAULT_CONFIG
        self.nonbinary_class_hypervectors_: Optional[np.ndarray] = None
        self.history_: Optional[TrainingHistory] = None

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        validation_hypervectors: Optional[np.ndarray] = None,
        validation_labels: Optional[np.ndarray] = None,
        epochs: Optional[int] = None,
    ) -> "NonBinaryLeHDCClassifier":
        """Train real-valued class hypervectors by softmax-regression on the encoding."""
        hypervectors, labels, num_classes = self._validate_fit_inputs(
            hypervectors, labels
        )
        if (validation_hypervectors is None) != (validation_labels is None):
            raise ValueError(
                "validation_hypervectors and validation_labels must be given together"
            )
        config = self.config
        dimension = hypervectors.shape[1]
        total_epochs = config.epochs if epochs is None else int(epochs)

        dropout = Dropout(config.dropout_rate, seed=self.rng)
        linear = Linear(
            dimension, num_classes, bias=False, init_scale=config.init_scale, seed=self.rng
        )
        optimizer = self._build_optimizer(linear, config)
        schedule = (
            ReduceOnLossIncrease(
                optimizer, factor=config.lr_decay_factor, patience=config.lr_decay_patience
            )
            if config.lr_decay_factor < 1.0
            else ConstantSchedule(optimizer)
        )

        # As in ``BNNTrainer.train``: the split stays int8 and ``Dropout``
        # writes each batch in the policy dtype of the weights.
        num_samples = hypervectors.shape[0]
        batch_size = min(config.batch_size, num_samples)
        history = TrainingHistory()

        for _ in range(total_epochs):
            dropout.train()
            order = self.rng.permutation(num_samples)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, num_samples, batch_size):
                batch = order[start : start + batch_size]
                batch_inputs = dropout.forward(hypervectors[batch])
                logits = linear.forward(batch_inputs)
                loss, grad_logits = cross_entropy_from_logits(logits, labels[batch])
                epoch_loss += loss * batch.shape[0]
                correct += int((np.argmax(logits, axis=1) == labels[batch]).sum())
                linear.zero_grad()
                # The input gradient Linear.backward returns would flow into
                # the encoded data, so it is not pushed through dropout.
                linear.backward(grad_logits)
                optimizer.step()
            history.train_loss.append(epoch_loss / num_samples)
            history.train_accuracy.append(correct / num_samples)
            history.learning_rate.append(optimizer.learning_rate)
            if validation_hypervectors is not None:
                self.nonbinary_class_hypervectors_ = linear.weight.value.T.copy()
                history.validation_accuracy.append(
                    float(
                        np.mean(
                            self._cosine_predict(validation_hypervectors)
                            == validation_labels
                        )
                    )
                )
            schedule.step(history.train_loss[-1])

        self.nonbinary_class_hypervectors_ = linear.weight.value.T.copy()
        self.class_hypervectors_ = sign_with_ties(
            self.nonbinary_class_hypervectors_, rng=self.rng
        )
        self.num_classes_ = num_classes
        self.history_ = history
        return self

    def _build_optimizer(self, linear, config):
        parameters = linear.parameters()
        kwargs = dict(
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
            decoupled_weight_decay=config.decoupled_weight_decay,
        )
        if config.optimizer == "adam":
            return Adam(parameters, **kwargs)
        if config.optimizer == "momentum":
            return Momentum(parameters, **kwargs)
        return SGD(parameters, **kwargs)

    # ------------------------------------------------------------ inference
    def decision_scores(self, hypervectors: np.ndarray) -> np.ndarray:
        """Cosine similarity to the non-binary class hypervectors (Sec. 3.1)."""
        check_fitted(self, "nonbinary_class_hypervectors_")
        hypervectors = check_matrix(
            hypervectors,
            "hypervectors",
            n_columns=self.nonbinary_class_hypervectors_.shape[1],
        )
        return self._cosine_scores(hypervectors.astype(np.float64))

    def _cosine_scores(self, samples: np.ndarray) -> np.ndarray:
        centroids = self.nonbinary_class_hypervectors_
        sample_norms = np.linalg.norm(samples, axis=1, keepdims=True)
        centroid_norms = np.linalg.norm(centroids, axis=1, keepdims=True).T
        sample_norms[sample_norms == 0] = 1.0
        centroid_norms[centroid_norms == 0] = 1.0
        return (samples @ centroids.T) / (sample_norms * centroid_norms)

    def _cosine_predict(self, hypervectors: np.ndarray) -> np.ndarray:
        return np.argmax(self._cosine_scores(np.asarray(hypervectors, dtype=np.float64)), axis=1)

    def to_binary(self) -> np.ndarray:
        """Return the binarised (``sgn``) class hypervectors for a binary datapath."""
        check_fitted(self, "nonbinary_class_hypervectors_")
        return self.class_hypervectors_.copy()


__all__ = ["NonBinaryLeHDCClassifier"]
