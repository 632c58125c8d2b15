"""The wide single-layer networks of Fig. 4 and the one LeHDC training loop.

Binary HDC is ``logits = BinaryLinear(Dropout(En(x)))`` with ``D`` inputs,
``K`` outputs and *no* activation at the output (Sec. 4: the non-binary
outputs feed the argmax directly).  Non-binary HDC is the same network with
real weights (footnote 1).  :class:`BNNTrainer` trains either one with the
LeHDC recipe:

* softmax cross-entropy loss with one-hot labels (Eq. 9);
* L2 weight decay on the latent (non-binary) weights (Eq. 10);
* dropout on the encoded hypervector;
* Adam on the latent weights, which accumulate small gradients while the
  forward pass always uses their binarisation (Eq. 8);
* learning-rate decay when the training loss increases (Sec. 5.2).

The two networks differ in two methods of the model, never in a flag: the
binary one clips its latent weights after every optimiser step
(:meth:`SingleLayerNetwork.after_step`), and each validates with its own
inference rule (:meth:`SingleLayerNetwork.predict`: binary weights against
cosine similarity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.classifiers.base import cosine_scores
from repro.core.configs import LeHDCConfig
from repro.nn.layers import BinaryLinear, Dropout
from repro.nn.losses import cross_entropy_from_logits
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.schedules import ConstantSchedule, ReduceOnLossIncrease
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_labels, check_matrix


@dataclass
class TrainingHistory:
    """Per-epoch training record (drives the Fig. 5 trajectory benchmark)."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    validation_accuracy: List[float] = field(default_factory=list)
    learning_rate: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)

    def best_validation_epoch(self) -> Optional[int]:
        """Index of the epoch with the highest validation accuracy, if tracked."""
        if not self.validation_accuracy:
            return None
        return int(np.argmax(self.validation_accuracy))


class SingleLayerNetwork(Module):
    """Dropout + one real-weight linear layer: the network of non-binary HDC.

    The paper's equivalence "also applies to non-binary HDC models by
    changing the BNN to a wide single-layer neural network with non-binary
    weights" (footnote 1): the weight columns are the real-valued class
    hypervectors, and inference is cosine similarity to them.

    Parameters
    ----------
    linear:
        The layer over the dropped-out hypervector, ``D`` inputs and ``K``
        outputs: a :class:`~repro.nn.layers.Linear` here, a
        :class:`~repro.nn.layers.BinaryLinear` in :class:`SingleLayerBNN`.
    dropout_rate:
        Dropout probability on the input hypervector (0 disables).
    seed:
        Seed or generator for the dropout masks.
    """

    def __init__(self, linear: Module, dropout_rate: float = 0.5, seed: SeedLike = None):
        super().__init__()
        self.dropout = Dropout(dropout_rate, seed=seed)
        self.linear = linear

    @property
    def num_classes(self) -> int:
        """Output width ``K``."""
        return self.linear.out_features

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.linear.forward(self.dropout.forward(inputs))

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate the weight gradient; returns no input gradient.

        The input is the encoded hypervector, which is data, so nothing flows
        back through the linear layer or the dropout mask.
        """
        self.linear.backward(grad_output)

    def after_step(self) -> None:
        """Run after every optimiser step; real weights need no constraint."""

    def predict(self, hypervectors: np.ndarray) -> np.ndarray:
        """Labels by cosine similarity to the class hypervectors (Sec. 3.1)."""
        samples = np.asarray(hypervectors, dtype=np.float64)
        return np.argmax(cosine_scores(samples, self.class_hypervectors), axis=1)

    @property
    def class_hypervectors(self) -> np.ndarray:
        """Real-valued class hypervectors, shape ``(K, D)`` (policy dtype)."""
        return self.linear.weight.value.T.copy()


class SingleLayerBNN(SingleLayerNetwork):
    """Dropout + binary linear layer: the BNN equivalent of a binary HDC classifier.

    Parameters
    ----------
    dimension:
        Input width ``D`` (the hypervector dimension).
    num_classes:
        Output width ``K``.
    dropout_rate:
        Dropout probability on the input hypervector (0 disables).
    latent_clip, init_scale, seed:
        Forwarded to :class:`~repro.nn.layers.BinaryLinear`; *seed* also
        drives the dropout masks.
    """

    def __init__(
        self,
        dimension: int,
        num_classes: int,
        dropout_rate: float = 0.5,
        latent_clip: Optional[float] = 1.0,
        init_scale: float = 0.01,
        seed: SeedLike = None,
    ):
        rng = ensure_rng(seed)
        linear = BinaryLinear(
            dimension, num_classes, latent_clip=latent_clip, init_scale=init_scale, seed=rng
        )
        super().__init__(linear, dropout_rate=dropout_rate, seed=rng)

    def after_step(self) -> None:
        """Clip the latent weights into ``[-latent_clip, +latent_clip]``."""
        self.linear.clip_latent()

    def predict(self, hypervectors: np.ndarray) -> np.ndarray:
        """Labels from the current binary weights (Eq. 4), dropout off."""
        self.eval()
        predictions = np.argmax(self.forward(hypervectors), axis=1)
        self.train()
        return predictions

    @property
    def class_hypervectors(self) -> np.ndarray:
        """Binary class hypervectors ``sgn(C_nb)`` with shape ``(K, D)`` (int8)."""
        return self.linear.binary_weight.T.astype(np.int8)

    @property
    def latent_class_hypervectors(self) -> np.ndarray:
        """Latent (non-binary) class hypervectors, shape ``(K, D)`` (policy dtype)."""
        return self.linear.weight.value.T.copy()


class BNNTrainer:
    """Mini-batch trainer implementing the LeHDC optimisation recipe.

    Parameters
    ----------
    model:
        The network to train in place: a :class:`SingleLayerBNN` (binary
        HDC) or a :class:`SingleLayerNetwork` (non-binary HDC).
    config:
        Hyper-parameters; see :class:`~repro.core.configs.LeHDCConfig`.
    seed:
        Seed or generator for mini-batch shuffling.
    """

    def __init__(
        self, model: SingleLayerNetwork, config: LeHDCConfig, seed: SeedLike = None
    ):
        self.model = model
        self.config = config
        self.rng = ensure_rng(seed)
        self.optimizer = Adam(
            model.parameters(),
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
            decoupled_weight_decay=config.decoupled_weight_decay,
        )
        if config.lr_decay_factor < 1.0:
            self.schedule = ReduceOnLossIncrease(
                self.optimizer,
                factor=config.lr_decay_factor,
                patience=config.lr_decay_patience,
            )
        else:
            self.schedule = ConstantSchedule(self.optimizer)
        self.history = TrainingHistory()

    # ---------------------------------------------------------------- train
    def train(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        validation_hypervectors: Optional[np.ndarray] = None,
        validation_labels: Optional[np.ndarray] = None,
        epochs: Optional[int] = None,
    ) -> TrainingHistory:
        """Run the full training loop and return the per-epoch history.

        Parameters
        ----------
        hypervectors, labels:
            Encoded training samples (``(n, D)`` bipolar) and integer labels.
        validation_hypervectors, validation_labels:
            Optional held-out set whose accuracy is recorded each epoch.
        epochs:
            Override ``config.epochs`` (used by the trajectory benchmarks).
        """
        hypervectors = check_matrix(hypervectors, "hypervectors")
        labels = check_labels(labels, hypervectors.shape[0], self.model.num_classes)
        if (validation_hypervectors is None) != (validation_labels is None):
            raise ValueError(
                "validation_hypervectors and validation_labels must be given together"
            )
        if validation_hypervectors is not None:
            validation_hypervectors = check_matrix(
                validation_hypervectors,
                "validation_hypervectors",
                n_columns=hypervectors.shape[1],
            )
            validation_labels = check_labels(
                validation_labels,
                validation_hypervectors.shape[0],
                self.model.num_classes,
            )

        total_epochs = self.config.epochs if epochs is None else int(epochs)
        # The split stays in its own dtype (int8 from the encoders): each
        # step gathers int8 rows and ``Dropout.forward`` writes the masked,
        # scaled batch in the policy dtype of the latent weights, so the
        # epoch runs in one precision without a float copy of the split.
        num_samples = hypervectors.shape[0]
        batch_size = min(self.config.batch_size, num_samples)

        for _ in range(total_epochs):
            self.model.train()
            order = self.rng.permutation(num_samples)
            epoch_loss = 0.0
            correct = 0
            for start in range(0, num_samples, batch_size):
                batch_indices = order[start : start + batch_size]
                batch_inputs = hypervectors[batch_indices]
                batch_labels = labels[batch_indices]

                logits = self.model.forward(batch_inputs)
                loss, grad_logits = cross_entropy_from_logits(logits, batch_labels)
                epoch_loss += loss * batch_indices.shape[0]
                correct += int((np.argmax(logits, axis=1) == batch_labels).sum())

                self.model.zero_grad()
                self.model.backward(grad_logits)
                self.optimizer.step()
                self.model.after_step()

            epoch_loss /= num_samples
            self.history.train_loss.append(epoch_loss)
            self.history.train_accuracy.append(correct / num_samples)
            self.history.learning_rate.append(self.optimizer.learning_rate)
            if validation_hypervectors is not None:
                # Each network validates with its own inference rule.
                predictions = self.model.predict(validation_hypervectors)
                self.history.validation_accuracy.append(
                    float(np.mean(predictions == validation_labels))
                )
            self.schedule.step(epoch_loss)

        return self.history


__all__ = ["SingleLayerNetwork", "SingleLayerBNN", "BNNTrainer", "TrainingHistory"]
