"""Reference implementations the fast paths are checked against, bit for bit.

* :func:`dense_record_accumulate` — Eq. 1 as the seed wrote it: one gather
  and multiply per feature, summed in int32.
* :func:`dense_ngram_accumulate` — the seed n-gram encoder: a Python loop
  over binding windows.
* :func:`reference_cross_entropy` and :func:`reference_bnn_backward` — the
  LeHDC training step before the trainer dropped its dead work: the softmax
  gradient with no subnormal flush, the input-gradient matmul through the
  binary weights, and ``Dropout.backward`` on the result.  Patch them over
  ``repro.core.bnn_model.cross_entropy_from_logits`` and
  ``SingleLayerBNN.backward`` to train with the pre-change step, and
  :func:`reference_clip_after_step` over ``SingleLayerBNN.after_step`` for
  the latent clip the trainer applied after every step.
* :func:`reference_dropout_forward` / :func:`reference_dropout_backward` —
  ``Dropout`` before the 16-bit mask: one float64 uniform per entry and a
  float mask multiplied over a float split.  :func:`float64_keep_mask` is
  that draw alone, to patch over ``Dropout._draw_keep_mask`` so the int8
  path replays the pre-change stream.
* :func:`reference_sign_with_ties` — ``sign_with_ties`` before the one-pass
  int8 rewrite: an int64 ``np.where``, a cast, and ties patched through a
  boolean mask.
* :class:`SequentialRetrainingHDC`, :class:`SequentialAdaptHDC` and
  :class:`SequentialEnhancedRetrainingHDC` — the retraining family on the
  seed's per-sample loop (:class:`SequentialRetraining`): one dense cast +
  matvec per sample and each strategy's per-sample ``_update``, where the
  classifiers score a whole pass over packed words and apply the pass's
  updates as one ordered scatter-add.
* :class:`SequentialMultiModelHDC` — the SearcHD-style ensemble on the
  seed's per-sample loop: a dense bootstrap bundle per sub-model and one
  dense model-bank matmul per visited sample, where the classifier keeps an
  incrementally patched packed score matrix.
* :class:`ReferenceNonBinaryLeHDC` — non-binary LeHDC on its own epoch loop,
  as it was before ``BNNTrainer.train`` became the one loop: its own Adam,
  schedule and cosine validation, and no validation split from the config.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.base import HDCClassifierBase
from repro.classifiers.retraining import RetrainingHDC, RetrainingHistory
from repro.core.bnn_model import TrainingHistory
from repro.core.configs import DEFAULT_CONFIG, LeHDCConfig
from repro.hdc.hypervector import BIPOLAR_DTYPE, random_hypervectors, sign_with_ties
from repro.kernels.linear import as_float
from repro.nn.layers import Dropout, Linear
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax
from repro.nn.optim import Adam
from repro.nn.schedules import ConstantSchedule, ReduceOnLossIncrease
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_fitted, check_matrix


def dense_record_accumulate(
    position_vectors: np.ndarray, level_vectors: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Pre-sign Eq. 1 accumulation ``sum_i F_i * V_{q_i}`` for ``(B, N)`` levels."""
    positions = position_vectors.astype(np.int32)
    level_table = level_vectors.astype(np.int32)
    accumulated = np.zeros((levels.shape[0], positions.shape[1]), dtype=np.int32)
    for feature_index in range(levels.shape[1]):
        accumulated += positions[feature_index] * level_table[levels[:, feature_index]]
    return accumulated


def dense_ngram_accumulate(encoder, levels: np.ndarray) -> np.ndarray:
    """Pre-sign n-gram accumulation of a fitted ``NGramEncoder``, window by window."""
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    permuted = [np.roll(level_vectors, o, axis=1) for o in range(encoder.ngram)]
    accumulated = np.zeros((levels.shape[0], encoder.dimension), dtype=np.int32)
    for start in range(levels.shape[1] - encoder.ngram + 1):
        gram = permuted[0][levels[:, start]].copy()
        for offset in range(1, encoder.ngram):
            gram *= permuted[offset][levels[:, start + offset]]
        accumulated += gram
    return accumulated


def reference_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its logit gradient, subnormal entries kept."""
    logits = as_float(logits)
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    probabilities = softmax(logits, axis=1)
    clipped = np.clip(probabilities[np.arange(batch), labels], 1e-12, 1.0)
    loss = float(-np.log(clipped).mean())
    grad = (probabilities - one_hot(labels, num_classes, dtype=probabilities.dtype)) / batch
    return loss, grad


def reference_bnn_backward(model, grad_output: np.ndarray) -> np.ndarray:
    """``SingleLayerBNN.backward`` with the input gradient it used to compute."""
    linear = model.linear
    grad_output = as_float(grad_output)
    grad_weight = linear._cached_input.T @ grad_output
    if linear.latent_clip is not None:
        inside = np.abs(linear.weight.value) <= linear.latent_clip
        grad_weight = grad_weight * inside
    linear.weight.add_grad(grad_weight)
    grad_input = grad_output @ linear._cached_binary.T
    return model.dropout.backward(grad_input)


def reference_clip_after_step(model) -> None:
    """The pre-change trainer's call after every optimiser step."""
    model.linear.clip_latent()


def reference_dropout_forward(self, inputs: np.ndarray) -> np.ndarray:
    """``Dropout.forward`` with a float64 uniform draw per entry."""
    inputs = as_float(inputs)
    if not self.training or self.rate == 0.0:
        self._cached_mask = None
        return inputs
    keep_probability = 1.0 - self.rate
    mask = self._rng.random(inputs.shape) < keep_probability
    self._cached_mask = mask.astype(inputs.dtype) / inputs.dtype.type(
        keep_probability
    )
    return inputs * self._cached_mask


def reference_dropout_backward(self, grad_output: np.ndarray) -> np.ndarray:
    """``Dropout.backward`` over the scaled float mask of :func:`reference_dropout_forward`."""
    grad_output = as_float(grad_output)
    if self._cached_mask is None:
        return grad_output
    return grad_output * self._cached_mask


def float64_keep_mask(self, shape) -> np.ndarray:
    """The pre-change keep mask alone, as a ``Dropout._draw_keep_mask``."""
    return self._rng.random(shape) < 1.0 - self.rate


def reference_sign_with_ties(
    values: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    tie_break: str = "random",
) -> np.ndarray:
    """``sign_with_ties`` through ``np.where`` and a boolean tie patch."""
    values = np.asarray(values)
    result = np.where(values > 0, 1, -1).astype(BIPOLAR_DTYPE)
    zeros = values == 0
    if np.any(zeros):
        if tie_break == "random":
            rng = ensure_rng(rng)
            random_signs = (
                2 * rng.integers(0, 2, size=int(zeros.sum()), dtype=np.int8) - 1
            )
            result[zeros] = random_signs
        else:
            result[zeros] = 1
    return result


def count_subnormals(array: np.ndarray) -> int:
    """Number of non-zero entries below the dtype's smallest normal magnitude."""
    magnitude = np.abs(array)
    return int(np.count_nonzero((magnitude > 0) & (magnitude < np.finfo(array.dtype).tiny)))


class SequentialRetraining:
    """Mixin: train a retraining-family classifier with the seed's per-sample loop.

    Listed before the classifier in the bases, it keeps the classifier's
    ``fit`` (input checks, the AdaptHD error-rate reset) and swaps only the
    training loop: the packed pass hands over to :meth:`_fit_sequential`,
    which applies the class's per-sample ``_update``.
    """

    def _fit_packed(self, train_set, *args):
        return self._fit_sequential(*args)

    # ------------------------------------------------------- sequential fit
    def _fit_sequential(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        validation_hypervectors: Optional[np.ndarray],
        validation_labels: Optional[np.ndarray],
    ) -> "RetrainingHDC":
        """The seed's per-sample loop: one dense cast + matvec per sample."""
        baseline = BaselineHDC(tie_break=self.tie_break, seed=self.rng)
        baseline.fit(hypervectors, labels)
        nonbinary = baseline.accumulators_.astype(np.float64)
        binary = baseline.class_hypervectors_.astype(np.int8)
        samples = hypervectors.astype(np.float64)

        history = RetrainingHistory()
        # Expose the history while training so adaptive subclasses can read
        # the running statistics of completed iterations.
        self.history_ = history
        for iteration in range(self.iterations):
            started = time.perf_counter()
            alpha = (
                self.first_iteration_learning_rate
                if iteration == 0
                else self.learning_rate
            )
            order = (
                self.rng.permutation(samples.shape[0])
                if self.shuffle
                else np.arange(samples.shape[0])
            )
            correct = 0
            for index in order:
                sample = samples[index]
                true_label = labels[index]
                scores = binary.astype(np.float64) @ sample
                predicted = int(np.argmax(scores))
                if predicted == true_label:
                    correct += 1
                    continue
                self._update(nonbinary, sample, true_label, predicted, alpha, scores)
            new_binary = sign_with_ties(
                nonbinary, rng=self.rng, tie_break=self.tie_break
            )
            update_fraction = float(np.mean(new_binary != binary))
            binary = new_binary
            history.train_accuracy.append(correct / samples.shape[0])
            history.update_fraction.append(update_fraction)
            if validation_hypervectors is not None:
                self.class_hypervectors_ = binary.astype(BIPOLAR_DTYPE)
                self.num_classes_ = num_classes
                history.test_accuracy.append(
                    self.score(validation_hypervectors, validation_labels)
                )
            history.iteration_seconds.append(time.perf_counter() - started)
            if update_fraction < self.epsilon and iteration > 0:
                break

        self.nonbinary_class_hypervectors_ = nonbinary
        self.class_hypervectors_ = binary.astype(BIPOLAR_DTYPE)
        self.num_classes_ = num_classes
        self.history_ = history
        return self


class SequentialRetrainingHDC(SequentialRetraining, RetrainingHDC):
    """:class:`RetrainingHDC` trained by the seed's per-sample loop."""

    def _update(
        self,
        nonbinary: np.ndarray,
        sample: np.ndarray,
        true_label: int,
        predicted: int,
        alpha: float,
        scores: np.ndarray,
    ) -> None:
        """Eq. 3: push the true class toward the sample, the wrong class away."""
        nonbinary[true_label] += alpha * sample
        nonbinary[predicted] -= alpha * sample


class SequentialAdaptHDC(SequentialRetraining, AdaptHDC):
    """:class:`AdaptHDC` trained by the seed's per-sample loop."""

    def _update(
        self,
        nonbinary: np.ndarray,
        sample: np.ndarray,
        true_label: int,
        predicted: int,
        alpha: float,
        scores: np.ndarray,
    ) -> None:
        if self.mode == "iteration":
            # Track a running error estimate within the pass and scale by it.
            if self.history_ is not None and self.history_.train_accuracy:
                self._current_error_rate = 1.0 - self.history_.train_accuracy[-1]
            rate = self.max_learning_rate * max(self._current_error_rate, 0.05)
        else:
            dimension = sample.shape[0]
            # Similarity gap between the winning wrong class and the true class,
            # normalised to [0, 1]; larger gap -> larger corrective step.
            gap = (scores[predicted] - scores[true_label]) / (2.0 * dimension)
            rate = self.max_learning_rate * float(np.clip(gap * 2.0 + 0.1, 0.05, 1.0))
        nonbinary[true_label] += rate * sample
        nonbinary[predicted] -= rate * sample


class SequentialEnhancedRetrainingHDC(SequentialRetraining, EnhancedRetrainingHDC):
    """:class:`EnhancedRetrainingHDC` trained by the seed's per-sample loop."""

    def _update(
        self,
        nonbinary: np.ndarray,
        sample: np.ndarray,
        true_label: int,
        predicted: int,
        alpha: float,
        scores: np.ndarray,
    ) -> None:
        dimension = sample.shape[0]
        # Convert dot-product scores to normalised Hamming distances:
        # hamming = (D - dot) / (2 D).
        distances = (dimension - scores) / (2.0 * dimension)
        true_distance = distances[true_label]

        # Ideal distance to the true class is 0; scale its pull by how far we are.
        nonbinary[true_label] += alpha * true_distance * 2.0 * sample

        # Every wrong class at least as similar as the true class gets pushed
        # away, scaled by how much closer than the ideal 0.5 it sits.
        closer_wrong = np.flatnonzero(distances <= true_distance)
        for wrong_label in closer_wrong:
            if wrong_label == true_label:
                continue
            shortfall = 0.5 - distances[wrong_label]
            if shortfall <= 0:
                continue
            nonbinary[wrong_label] -= alpha * shortfall * 2.0 * sample


class SequentialMultiModelHDC(MultiModelHDC):
    """:class:`MultiModelHDC` trained by the seed's per-sample loop."""

    def fit(self, hypervectors, labels):
        hypervectors, labels, num_classes = self._validate_fit_inputs(
            hypervectors, labels
        )
        return self._fit_sequential(hypervectors, labels, num_classes)

    # ------------------------------------------------------- sequential fit
    def _fit_sequential(
        self, hypervectors: np.ndarray, labels: np.ndarray, num_classes: int
    ) -> "MultiModelHDC":
        """The seed's per-sample loop: one dense model-bank matmul per sample."""
        dimension = hypervectors.shape[1]
        models = self._initialise_models(hypervectors, labels, num_classes, dimension)

        samples = hypervectors.astype(np.int8)
        num_samples = samples.shape[0]
        history = RetrainingHistory()
        self.history_ = history
        for _ in range(self.iterations):
            started = time.perf_counter()
            order = self.rng.permutation(num_samples)
            correct = 0
            flipped_bits = 0
            for index in order:
                sample = samples[index]
                true_label = labels[index]
                flat = models.reshape(-1, dimension)
                scores = flat.astype(np.int32) @ sample.astype(np.int32)
                best = int(np.argmax(scores))
                predicted = best // self.models_per_class
                if predicted == true_label:
                    correct += 1
                    continue
                # Pull the closest sub-model of the true class toward the sample
                # and push the winning wrong sub-model away, each by flipping a
                # random subset of disagreeing/agreeing bits.
                true_scores = scores[
                    true_label
                    * self.models_per_class : (true_label + 1)
                    * self.models_per_class
                ]
                target = int(np.argmax(true_scores))
                chosen = self._flip_toward(models[true_label, target], sample)
                if chosen is not None:
                    flipped_bits += chosen.size
                if self.push_away:
                    chosen = self._flip_away(
                        models[predicted, best % self.models_per_class], sample
                    )
                    if chosen is not None:
                        flipped_bits += chosen.size
            self._record_pass(
                history,
                correct,
                num_samples,
                flipped_bits,
                num_classes * self.models_per_class * dimension,
                started,
            )

        return self._publish_models(models, num_classes)

    def _initialise_models(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        dimension: int,
    ) -> np.ndarray:
        """Seed each sub-model by bundling a bootstrap subset of its class.

        SearcHD starts its per-class models from stochastic combinations of the
        class's encoded samples rather than pure noise; bootstrapping a random
        half of the class per sub-model reproduces that behaviour and gives the
        ensemble diversity without requiring many refinement passes.  Classes
        with no samples (possible only with malformed labels) fall back to a
        random hypervector.
        """
        from repro.hdc.hypervector import bundle

        models = random_hypervectors(
            num_classes * self.models_per_class, dimension, seed=self.rng
        ).reshape(num_classes, self.models_per_class, dimension)
        for class_index in range(num_classes):
            member_indices = np.flatnonzero(labels == class_index)
            if member_indices.size == 0:
                continue
            subset_size = max(1, member_indices.size // 2)
            for model_index in range(self.models_per_class):
                chosen = self.rng.choice(member_indices, size=subset_size, replace=True)
                models[class_index, model_index] = bundle(
                    hypervectors[chosen], rng=self.rng
                )
        return models


class ReferenceNonBinaryLeHDC(HDCClassifierBase):
    """Non-binary LeHDC with its own epoch loop (the pre-change classifier).

    Kept as it was except where it named a deleted symbol: ``Linear`` lost
    its ``bias`` argument (and the input gradient its ``backward`` returned
    and this loop dropped), and the optimiser switch is Adam alone.
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
    ) -> "ReferenceNonBinaryLeHDC":
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
        linear = Linear(dimension, num_classes, init_scale=config.init_scale, seed=self.rng)
        optimizer = Adam(
            linear.parameters(),
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
            decoupled_weight_decay=config.decoupled_weight_decay,
        )
        schedule = (
            ReduceOnLossIncrease(
                optimizer, factor=config.lr_decay_factor, patience=config.lr_decay_patience
            )
            if config.lr_decay_factor < 1.0
            else ConstantSchedule(optimizer)
        )

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


__all__ = [
    "ReferenceNonBinaryLeHDC",
    "SequentialAdaptHDC",
    "SequentialEnhancedRetrainingHDC",
    "SequentialMultiModelHDC",
    "SequentialRetraining",
    "SequentialRetrainingHDC",
    "count_subnormals",
    "dense_ngram_accumulate",
    "dense_record_accumulate",
    "float64_keep_mask",
    "reference_bnn_backward",
    "reference_clip_after_step",
    "reference_cross_entropy",
    "reference_dropout_backward",
    "reference_dropout_forward",
    "reference_sign_with_ties",
]
