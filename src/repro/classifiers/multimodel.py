"""Multi-model (ensemble) HDC in the style of SearcHD, the paper's Ref. [8].

SearcHD keeps ``N`` binary class hypervectors *per class* instead of one and
trains them with stochastic updates: each misclassified sample updates the
per-class model it is most similar to, flipping a random subset of the bits
that disagree with the sample.  At inference, a query is compared against all
``K * N`` hypervectors and the class of the best match wins.

The paper uses 64 models per class in its evaluation (Sec. 5) and notes two
behaviours this implementation reproduces:

* the ensemble's storage grows linearly in ``N`` (captured by the hardware
  cost model and the resource benchmark);
* on datasets with many features/classes but few training samples the
  ensemble can do *worse* than the plain baseline (Table 1's CIFAR-10 and
  ISOLET rows), because each sub-model sees too few updates.

Training and inference are *packed-native*, matching SearcHD's own pitch that
binary models exist so hardware can run XOR+popcount instead of GEMMs:

* ``fit`` scores the whole packed training set against the packed model bank
  once and replays the sequential stochastic updates on an
  incrementally-maintained score matrix
  (:class:`~repro.kernels.train.EnsembleScoreboard`) — bit-identical to the
  seed per-sample loop (same models, same RNG stream, both ``push_away``
  settings), which ``tests/reference.py`` keeps as the reference.  Training
  input must be bipolar, entries in ``{+1, -1}``;
* ``packed_inference_bank`` is the flat packed model bank, ``N`` rows per
  class; the base class's ``decision_scores_packed`` (and the serving
  engine) score it with :func:`~repro.kernels.packed.bank_scores`, blocked
  XOR+popcount and the max over each class's sub-models, so neither falls
  back to dense for ensemble models.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.classifiers.base import HDCClassifierBase
from repro.classifiers.retraining import RetrainingHistory
from repro.hdc.hypervector import BIPOLAR_DTYPE, random_hypervectors, sign_with_ties
from repro.kernels.packed import PackedHypervectors, pack_bipolar
from repro.kernels.train import EnsembleScoreboard, PackedTrainingSet, unpack_bit_rows
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fitted, check_matrix, check_positive_int, check_probability


class MultiModelHDC(HDCClassifierBase):
    """SearcHD-style multi-model binary HDC ensemble.

    Parameters
    ----------
    models_per_class:
        Number of binary hypervectors kept per class (paper: 64).
    iterations:
        Number of stochastic training passes over the data.
    flip_fraction:
        Fraction of disagreeing bits flipped toward a sample on an update
        (the stochastic update of SearcHD).
    push_away:
        When ``True`` also flip bits of the winning *wrong* sub-model away
        from a misclassified sample.  Disabled by default: with the small
        training sets used here the destructive update dominates and drags
        every sub-model toward noise, whereas the pull-only update keeps the
        ensemble's mixed behaviour reported in Table 1 (sometimes above,
        sometimes below the baseline).
    seed:
        Seed or generator for initialisation and stochastic flips.

    Attributes
    ----------
    model_hypervectors_:
        ``(K, N, D)`` int8 bipolar model bank after :meth:`fit`.
    history_:
        A :class:`~repro.classifiers.retraining.RetrainingHistory` with the
        per-pass training accuracy (fraction of samples already classified
        correctly at visit time), the per-pass update volume (flipped bits
        as a fraction of all ``K * N * D`` model bits), and per-pass wall
        seconds.
    """

    def __init__(
        self,
        models_per_class: int = 64,
        iterations: int = 10,
        flip_fraction: float = 0.02,
        push_away: bool = False,
        seed: SeedLike = None,
    ):
        super().__init__(seed=seed)
        self.models_per_class = check_positive_int(models_per_class, "models_per_class")
        self.iterations = check_positive_int(iterations, "iterations")
        self.flip_fraction = check_probability(flip_fraction, "flip_fraction")
        if self.flip_fraction == 0.0:
            raise ValueError("flip_fraction must be > 0 for training to make progress")
        self.push_away = bool(push_away)
        self.model_hypervectors_: Optional[np.ndarray] = None
        self.history_: Optional[RetrainingHistory] = None
        #: (source bank, value) caches keyed on ``model_hypervectors_`` identity.
        self._packed_bank_cache = None
        self._score_bank_cache = None

    def supports_packed_training(self) -> bool:
        """Accepts a shared :class:`PackedTrainingSet` via ``fit(packed_train=…)``."""
        return True

    # ------------------------------------------------------------------ fit
    def fit(
        self,
        hypervectors: np.ndarray,
        labels: np.ndarray,
        packed_train: Optional[PackedTrainingSet] = None,
    ) -> "MultiModelHDC":
        """Train the per-class ensembles with stochastic bit-flip updates.

        ``packed_train`` supplies a pre-packed copy of ``hypervectors`` so
        experiment loops can encode + pack each split once and share it
        across strategies; when omitted, the packed copy is built here.
        ``hypervectors`` must be bipolar (entries in ``{+1, -1}``); anything
        else raises ``ValueError``.
        """
        hypervectors, labels, num_classes = self._validate_fit_inputs(
            hypervectors, labels
        )
        train_set = self._resolve_training_set(hypervectors, packed_train)
        return self._fit_packed(train_set, labels, num_classes)

    def _resolve_training_set(
        self,
        hypervectors: np.ndarray,
        packed_train: Optional[PackedTrainingSet],
    ) -> PackedTrainingSet:
        """Validate a supplied packed copy, or pack *hypervectors* (bipolar only)."""
        if packed_train is not None:
            return packed_train.require_matches(hypervectors)
        return PackedTrainingSet.from_dense(hypervectors)

    # ----------------------------------------------------------- packed fit
    def _fit_packed(
        self,
        train_set: PackedTrainingSet,
        labels: np.ndarray,
        num_classes: int,
    ) -> "MultiModelHDC":
        """Score-once + incremental column updates over packed words.

        Bit-identical to the seed's per-sample loop: the scoreboard's visit-time
        rows equal the dense per-sample products exactly (integer XOR+popcount
        arithmetic), the flip selection runs on the same dense rows through
        the same RNG calls, and a flip patches exactly the one score column
        that changed.  Because the deltas are exact, the matrix built at
        scoreboard construction stays valid across pass boundaries — no
        re-scoring anywhere in the run.
        """
        dimension = train_set.dimension
        models_per_class = self.models_per_class
        models = self._initialise_models_packed(
            train_set, labels, num_classes, dimension
        )
        samples = train_set.samples
        num_samples = train_set.num_samples
        board = EnsembleScoreboard(
            train_set.packed,
            pack_bipolar(models.reshape(-1, dimension)).words,
            dimension,
        )

        history = RetrainingHistory()
        self.history_ = history
        for _ in range(self.iterations):
            started = time.perf_counter()
            order = self.rng.permutation(num_samples)
            correct = 0
            flipped_bits = 0
            for index in order:
                row = board.scores[index]
                best = int(np.argmax(row))
                predicted = best // models_per_class
                true_label = labels[index]
                if predicted == true_label:
                    correct += 1
                    continue
                sample = samples[index]
                base = true_label * models_per_class
                target = int(np.argmax(row[base : base + models_per_class]))
                chosen = self._flip_toward(models[true_label, target], sample)
                if chosen is not None:
                    board.flip_bits(base + target, chosen)
                    flipped_bits += chosen.size
                if self.push_away:
                    chosen = self._flip_away(
                        models[predicted, best % models_per_class], sample
                    )
                    if chosen is not None:
                        board.flip_bits(best, chosen)
                        flipped_bits += chosen.size
            self._record_pass(
                history,
                correct,
                num_samples,
                flipped_bits,
                board.num_models * dimension,
                started,
            )

        return self._publish_models(models, num_classes)

    def _initialise_models_packed(
        self,
        train_set: PackedTrainingSet,
        labels: np.ndarray,
        num_classes: int,
        dimension: int,
    ) -> np.ndarray:
        """Bootstrap-bundle the sub-models over packed words.

        Identical draws to the seed's dense bootstrap: the per-model
        ``rng.choice`` and the ``sgn(0)`` tie draws must interleave exactly
        as in the seed loop (choice then sign, model by model — a later
        choice depends on an earlier sign's draws), so bundling cannot batch
        across the ``num_classes x models_per_class`` grid.  What moves to
        the kernel layer instead: each class's member rows are expanded from
        packed words to a 0/1 bit matrix *once*
        (:func:`~repro.kernels.train.unpack_bit_rows`), and every bootstrap
        bundle becomes a uint8 row-gather + column sum — the
        ``2 * set_bits - rows`` rule of
        :func:`~repro.kernels.train.bundle_packed` at an eighth of the dense
        ``astype(int64)`` path's memory traffic, with the exact same integer
        accumulators and therefore the exact same tie positions.
        """
        models = random_hypervectors(
            num_classes * self.models_per_class, dimension, seed=self.rng
        ).reshape(num_classes, self.models_per_class, dimension)
        words = train_set.packed.words
        for class_index in range(num_classes):
            member_indices = np.flatnonzero(labels == class_index)
            if member_indices.size == 0:
                continue
            subset_size = max(1, member_indices.size // 2)
            member_bits = unpack_bit_rows(words[member_indices], dimension)
            for model_index in range(self.models_per_class):
                chosen = self.rng.choice(member_indices, size=subset_size, replace=True)
                local_rows = np.searchsorted(member_indices, chosen)
                counts = member_bits[local_rows].sum(axis=0, dtype=np.int64)
                accumulated = 2 * counts - subset_size
                models[class_index, model_index] = sign_with_ties(
                    accumulated, rng=self.rng
                )
        return models

    # ------------------------------------------------------- shared helpers
    def _flip_toward(self, model: np.ndarray, sample: np.ndarray) -> Optional[np.ndarray]:
        """Flip a random subset of disagreeing bits toward *sample* in place.

        Returns the flipped positions (every chosen bit changes, since it
        disagreed) so the scoreboard can patch its score column, or ``None``
        when the model already matches the sample (no RNG consumed).
        """
        disagree = np.flatnonzero(model != sample)
        if disagree.size == 0:
            return None
        count = max(1, int(round(self.flip_fraction * disagree.size)))
        chosen = self.rng.choice(disagree, size=count, replace=False)
        model[chosen] = sample[chosen]
        return chosen

    def _flip_away(self, model: np.ndarray, sample: np.ndarray) -> Optional[np.ndarray]:
        """Flip a random subset of agreeing bits away from *sample* in place."""
        agree = np.flatnonzero(model == sample)
        if agree.size == 0:
            return None
        count = max(1, int(round(self.flip_fraction * agree.size)))
        chosen = self.rng.choice(agree, size=count, replace=False)
        model[chosen] = -sample[chosen]
        return chosen

    @staticmethod
    def _record_pass(
        history: RetrainingHistory,
        correct: int,
        num_samples: int,
        flipped_bits: int,
        total_model_bits: int,
        started: float,
    ) -> None:
        """Append one pass to the history.

        ``update_fraction`` is the pass's update *volume* — bits flipped as a
        fraction of all ``K * N * D`` model bits (a bit flipped twice counts
        twice), the ensemble analogue of retraining's flipped-bit fraction.
        """
        history.train_accuracy.append(correct / num_samples)
        history.update_fraction.append(flipped_bits / float(total_model_bits))
        history.iteration_seconds.append(time.perf_counter() - started)

    def _publish_models(self, models: np.ndarray, num_classes: int) -> "MultiModelHDC":
        """Install the trained bank and its derived per-class majority vectors."""
        self.model_hypervectors_ = models.astype(BIPOLAR_DTYPE)
        self.num_classes_ = num_classes
        # The base-class inference path expects one hypervector per class; the
        # ensemble overrides decision_scores instead, but we still expose the
        # per-class majority vector for storage accounting and inspection.
        majority = np.where(models.sum(axis=1) >= 0, 1, -1)
        self.class_hypervectors_ = majority.astype(BIPOLAR_DTYPE)
        return self

    # ------------------------------------------------------------ inference
    def supports_packed_scoring(self) -> bool:
        """The max-over-ensemble rule has an exact packed re-implementation."""
        return True

    def decision_scores(self, hypervectors: np.ndarray) -> np.ndarray:
        """Best sub-model similarity per class (max over the ensemble).

        Scores in int32 (|dot| <= D fits easily): the seed implementation
        re-cast the whole model bank *and* the queries to int64 on every
        call, doubling the memory traffic of the dense path for no extra
        range.
        """
        check_fitted(self, "model_hypervectors_")
        hypervectors = check_matrix(
            hypervectors,
            "hypervectors",
            n_columns=self.model_hypervectors_.shape[2],
        )
        num_classes, models_per_class, _ = self.model_hypervectors_.shape
        scores = hypervectors.astype(np.int32, copy=False) @ self._score_bank()
        scores = scores.reshape(hypervectors.shape[0], num_classes, models_per_class)
        return scores.max(axis=2)

    def packed_inference_bank(self) -> PackedHypervectors:
        """The flat ``(K * N, ceil(D/64))`` packed model bank, cached.

        This is what an accelerator (or the serving engine) keeps resident
        for an ensemble model — the paper's linear-in-``N`` storage growth,
        now visible as serving bytes.
        """
        check_fitted(self, "model_hypervectors_")
        cache = self._packed_bank_cache
        if cache is None or cache[0] is not self.model_hypervectors_:
            flat = self.model_hypervectors_.reshape(
                -1, self.model_hypervectors_.shape[2]
            )
            cache = (self.model_hypervectors_, pack_bipolar(flat))
            self._packed_bank_cache = cache
        return cache[1]

    def _score_bank(self) -> np.ndarray:
        """The transposed int32 model bank for the dense scoring path, cached."""
        cache = self._score_bank_cache
        if cache is None or cache[0] is not self.model_hypervectors_:
            flat = self.model_hypervectors_.reshape(
                -1, self.model_hypervectors_.shape[2]
            )
            cache = (
                self.model_hypervectors_,
                np.ascontiguousarray(flat.T, dtype=np.int32),
            )
            self._score_bank_cache = cache
        return cache[1]

    @property
    def storage_hypervectors(self) -> int:
        """Total number of binary hypervectors the ensemble must store."""
        check_fitted(self, "model_hypervectors_")
        return int(self.model_hypervectors_.shape[0] * self.model_hypervectors_.shape[1])


__all__ = ["MultiModelHDC"]
