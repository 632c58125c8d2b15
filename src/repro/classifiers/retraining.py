"""QuantHD-style retraining (Eq. 3 / Fig. 2), the paper's main prior-art comparator.

Starting from the baseline centroids, each retraining iteration classifies the
training samples with the *binary* class hypervectors and, for every
misclassified sample, updates the *non-binary* accumulators of the true class
(``+ alpha * H``) and the predicted wrong class (``- alpha * H``).  The binary
hypervectors are re-derived by ``sgn`` after the pass.  Retraining stops when
the fraction of flipped bits falls below ``epsilon`` or the iteration budget
is exhausted.

The paper's evaluation uses ``alpha = 1.5`` on the first iteration and
``alpha = 0.05`` afterwards, with 150 iterations (Sec. 5); those are the
defaults here.

Training is *packed-native*: because the binary class hypervectors are
fixed within a pass and the accumulator updates are additive, each epoch is
one blocked XOR+popcount scoring of the whole packed training set
(:func:`repro.kernels.train.score_epoch`) followed by an ordered scatter-add
of the misclassified samples' updates
(:func:`repro.kernels.train.apply_class_updates`).  The update order — and
therefore every float rounding and every ``sgn(0)`` tie-break draw — matches
the seed's sequential per-sample loop exactly, so training produces the
same models and :class:`RetrainingHistory` bit for bit for *any* ``shuffle``
setting (the seed loop is kept in ``tests/reference.py`` as the reference).
Training input must be bipolar, entries in ``{+1, -1}``; an encoder's
output always is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.classifiers.base import HDCClassifierBase
from repro.classifiers.baseline import BaselineHDC
from repro.kernels.packed import (
    pack_bipolar,
    pack_bits,
    sign_fuse_bits,
    try_pack_bipolar,
    unpack_bipolar,
)
from repro.kernels.train import (
    PackedTrainingSet,
    apply_class_updates,
    flip_fraction_packed,
    score_epoch,
)
from repro.utils.rng import SeedLike
from repro.utils.validation import check_matrix, check_labels, check_positive_int


@dataclass
class RetrainingHistory:
    """Per-iteration record of a retraining run (used to draw Fig. 3)."""

    train_accuracy: List[float] = field(default_factory=list)
    update_fraction: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    #: Wall-clock seconds per retraining iteration (scoring + updates +
    #: re-sign + optional validation scoring); powers the timing columns of
    #: ``benchmarks/bench_fig3_retraining.py``.
    iteration_seconds: List[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of completed retraining iterations."""
        return len(self.train_accuracy)


class RetrainingHDC(HDCClassifierBase):
    """Binary HDC with misclassification-driven retraining of class hypervectors.

    Parameters
    ----------
    iterations:
        Maximum number of retraining passes over the training set.
    learning_rate:
        Update step ``alpha`` applied from the second iteration onwards.
    first_iteration_learning_rate:
        Larger ``alpha`` for the first pass (paper: 1.5).
    epsilon:
        Convergence threshold on the fraction of class-hypervector bits that
        flip in one iteration; retraining stops early below it.
    shuffle:
        Whether to visit training samples in a fresh random order each pass
        (the update is sequential, so order matters).
    tie_break, seed:
        As in :class:`~repro.classifiers.baseline.BaselineHDC`.
    """

    def __init__(
        self,
        iterations: int = 150,
        learning_rate: float = 0.05,
        first_iteration_learning_rate: float = 1.5,
        epsilon: float = 1e-4,
        shuffle: bool = True,
        tie_break: str = "random",
        seed: SeedLike = None,
    ):
        super().__init__(seed=seed)
        self.iterations = check_positive_int(iterations, "iterations")
        if learning_rate <= 0 or first_iteration_learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        self.learning_rate = float(learning_rate)
        self.first_iteration_learning_rate = float(first_iteration_learning_rate)
        self.epsilon = float(epsilon)
        self.shuffle = bool(shuffle)
        self.tie_break = tie_break
        self.history_: Optional[RetrainingHistory] = None
        self.nonbinary_class_hypervectors_: Optional[np.ndarray] = None

    def supports_packed_training(self) -> bool:
        """Accepts a shared :class:`PackedTrainingSet` via ``fit(packed_train=…)``."""
        return True

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        validation_hypervectors: Optional[np.ndarray] = None,
        validation_labels: Optional[np.ndarray] = None,
        packed_train: Optional[PackedTrainingSet] = None,
    ) -> "RetrainingHDC":
        """Retrain class hypervectors; optionally track held-out accuracy per pass.

        The optional validation arguments only add entries to
        ``history_.test_accuracy`` (for trajectory figures); they never
        influence the training itself.  ``packed_train`` supplies a
        pre-packed copy of ``hypervectors`` (see
        :class:`~repro.kernels.train.PackedTrainingSet`) so experiment loops
        can encode + pack once and share the result across strategies; when
        omitted, the packed copy is built here.  ``hypervectors`` must be
        bipolar (entries in ``{+1, -1}``); anything else raises
        ``ValueError``.
        """
        hypervectors, labels, num_classes = self._validate_fit_inputs(
            hypervectors, labels
        )
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
                validation_labels, validation_hypervectors.shape[0]
            )

        train_set = self._resolve_training_set(hypervectors, packed_train)
        return self._fit_packed(
            train_set,
            hypervectors,
            labels,
            num_classes,
            validation_hypervectors,
            validation_labels,
        )

    # ----------------------------------------------------------- packed fit
    def _fit_packed(
        self,
        train_set: PackedTrainingSet,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        num_classes: int,
        validation_hypervectors: Optional[np.ndarray],
        validation_labels: Optional[np.ndarray],
    ) -> "RetrainingHDC":
        """One blocked scoring + ordered scatter-add per pass over packed words.

        Bit-identical to the seed's per-sample loop: the epoch scores are the
        same integers, the accumulator updates land in the same order, and
        the re-sign consumes the RNG identically (``sign_fuse_bits`` mirrors
        ``sign_with_ties`` draw for draw).
        """
        baseline = BaselineHDC(tie_break=self.tie_break, seed=self.rng)
        baseline.fit(hypervectors, labels, packed_train=train_set)
        nonbinary = baseline.accumulators_.astype(np.float64)
        packed_classes = pack_bipolar(baseline.class_hypervectors_)
        samples = train_set.samples
        packed_samples = train_set.packed
        num_samples = train_set.num_samples
        dimension = train_set.dimension
        # Pack-only (no dense int8 copy retained): scoring the validation
        # split per pass needs just the words.
        packed_validation = (
            None
            if validation_hypervectors is None
            else try_pack_bipolar(validation_hypervectors)
        )

        history = RetrainingHistory()
        for iteration in range(self.iterations):
            started = time.perf_counter()
            alpha = (
                self.first_iteration_learning_rate
                if iteration == 0
                else self.learning_rate
            )
            order = self.rng.permutation(num_samples) if self.shuffle else None
            scores, predicted = score_epoch(packed_samples, packed_classes)
            misclassified = predicted != labels
            correct = num_samples - int(np.count_nonzero(misclassified))
            # The rows the sequential loop would update, in its visit order.
            visit = (
                np.flatnonzero(misclassified)
                if order is None
                else order[misclassified[order]]
            )
            if visit.size:
                class_indices, coefficients, sample_rows = self._epoch_updates(
                    scores, labels, predicted, visit, alpha, dimension
                )
                apply_class_updates(
                    nonbinary, class_indices, coefficients, samples, sample_rows
                )
            new_bits = sign_fuse_bits(nonbinary, tie_break=self.tie_break, rng=self.rng)
            new_packed = pack_bits(new_bits, dimension)
            update_fraction = flip_fraction_packed(new_packed, packed_classes)
            packed_classes = new_packed
            history.train_accuracy.append(correct / num_samples)
            history.update_fraction.append(update_fraction)
            if validation_hypervectors is not None:
                self._publish_classes(packed_classes, num_classes)
                if packed_validation is not None:
                    _, val_predicted = score_epoch(packed_validation, packed_classes)
                    accuracy = float(np.mean(val_predicted == validation_labels))
                else:
                    accuracy = self.score(validation_hypervectors, validation_labels)
                history.test_accuracy.append(accuracy)
            history.iteration_seconds.append(time.perf_counter() - started)
            if update_fraction < self.epsilon and iteration > 0:
                break

        self.nonbinary_class_hypervectors_ = nonbinary
        self._publish_classes(packed_classes, num_classes)
        self.history_ = history
        return self

    def _publish_classes(self, packed_classes, num_classes: int) -> None:
        """Install the packed class HVs as the fitted model (dense + cache)."""
        self.class_hypervectors_ = unpack_bipolar(packed_classes)
        self.num_classes_ = num_classes
        # Pre-seed the packed cache: inference right after fit() should not
        # pay a re-pack of words we already hold.
        self._packed_classes_cache = (self.class_hypervectors_, packed_classes)

    def _resolve_training_set(
        self,
        hypervectors: np.ndarray,
        packed_train: Optional[PackedTrainingSet],
    ) -> PackedTrainingSet:
        """Validate a supplied packed copy, or pack *hypervectors* (bipolar only)."""
        if packed_train is not None:
            return packed_train.require_matches(hypervectors)
        return PackedTrainingSet.from_dense(hypervectors)

    # --------------------------------------------------------------- update
    def _epoch_updates(
        self,
        scores: np.ndarray,
        labels: np.ndarray,
        predicted: np.ndarray,
        visit: np.ndarray,
        alpha: float,
        dimension: int,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 3 for one epoch: pull the true class, push the predicted one.

        Returns ``(class_indices, coefficients, sample_rows)`` describing
        every accumulator update of the pass *in the order they are applied*:
        for each misclassified sample (``visit`` order), ``+alpha`` into the
        true class then ``-alpha`` into the predicted one.  This is the one
        update hook; subclasses override it to change the update rule.
        """
        count = visit.size
        class_indices = np.empty(2 * count, dtype=np.intp)
        class_indices[0::2] = labels[visit]
        class_indices[1::2] = predicted[visit]
        coefficients = np.empty(2 * count, dtype=np.float64)
        coefficients[0::2] = alpha
        coefficients[1::2] = -alpha
        sample_rows = np.repeat(visit, 2)
        return class_indices, coefficients, sample_rows


__all__ = ["RetrainingHDC", "RetrainingHistory"]
