"""Shared interface for HDC classifiers.

Every strategy ends up with a set of binary class hypervectors and classifies
a query by nearest Hamming distance (Eq. 4) — that is the whole point of the
paper: inference is identical across strategies, only training differs.  The
base class therefore owns the inference path and accuracy scoring, and
subclasses implement ``fit`` to produce ``class_hypervectors_``.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.hdc.hypervector import dot_similarity, hamming_distance
from repro.kernels.packed import PackedHypervectors, bank_scores, pack_bipolar
from repro.utils.rng import RngMixin, SeedLike
from repro.utils.validation import check_fitted, check_labels, check_matrix


def top_k_from_scores(scores: np.ndarray, k: int):
    """Select the ``k`` best classes per row of a ``(n, K)`` score matrix.

    Returns ``(labels, scores)``, both ``(n, k)``, best first; ``k`` is
    clipped to the number of classes.  Shared by
    :meth:`~repro.classifiers.pipeline.HDCPipeline.top_k` and the serving
    engine so tie-ordering and clipping can never diverge between the dense
    and packed paths.  Tied classes come lowest index first: the stable
    sort keeps them in index order, and ``argmax`` (``k == 1``) returns the
    first maximum.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = min(int(k), scores.shape[1])
    if k == 1:
        order = scores.argmax(axis=1)[:, None]
    else:
        order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return order, scores[np.arange(len(scores))[:, None], order]


def cosine_scores(samples: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Cosine similarity of each sample row to each centroid row, ``(n, K)``.

    A zero-norm row scores 0 against everything instead of dividing by zero.
    Norms and products are taken in the operands' own dtypes.  The one cosine
    scorer: non-binary LeHDC predicts and validates with it.
    """
    sample_norms = np.linalg.norm(samples, axis=1, keepdims=True)
    centroid_norms = np.linalg.norm(centroids, axis=1, keepdims=True).T
    sample_norms[sample_norms == 0] = 1.0
    centroid_norms[centroid_norms == 0] = 1.0
    return (samples @ centroids.T) / (sample_norms * centroid_norms)


class HDCClassifierBase(RngMixin, abc.ABC):
    """Abstract binary-HDC classifier operating on encoded hypervectors.

    Parameters
    ----------
    seed:
        Seed or generator used for any stochastic part of training
        (tie-breaking, shuffling, stochastic updates).

    Attributes
    ----------
    class_hypervectors_:
        ``(K, D)`` int8 bipolar matrix after :meth:`fit`; ``None`` before.
    num_classes_:
        Number of classes ``K`` seen during :meth:`fit`.
    """

    def __init__(self, seed: SeedLike = None):
        super().__init__(seed=seed)
        self.class_hypervectors_: Optional[np.ndarray] = None
        self.num_classes_: Optional[int] = None
        #: (source array, packed form) — holding the source keeps the cache
        #: validity check a simple identity comparison.
        self._packed_classes_cache = None

    # ------------------------------------------------------------------ fit
    @abc.abstractmethod
    def fit(self, hypervectors: np.ndarray, labels: np.ndarray) -> "HDCClassifierBase":
        """Train class hypervectors from encoded samples and integer labels."""

    def supports_packed_training(self) -> bool:
        """True when :meth:`fit` accepts a shared pre-packed training set.

        Strategies riding the packed training kernels take an optional
        ``packed_train=`` :class:`~repro.kernels.train.PackedTrainingSet`
        in :meth:`fit`, letting experiment loops encode + pack each split
        once and share it across strategies.  The default is ``False``;
        the centroid/retraining family overrides it.
        """
        return False

    def _validate_fit_inputs(self, hypervectors, labels):
        hypervectors = check_matrix(hypervectors, "hypervectors")
        labels = check_labels(labels, hypervectors.shape[0])
        num_classes = int(labels.max()) + 1
        if num_classes < 2:
            raise ValueError("training data must contain at least two classes")
        return hypervectors, labels, num_classes

    # ------------------------------------------------------------ inference
    def decision_scores(self, hypervectors: np.ndarray) -> np.ndarray:
        """Similarity of each sample to each class: higher is more similar.

        Returns the integer dot product ``En(x)^T c_k`` (the BNN output of
        Eq. 6); argmax over it equals argmin over Hamming distance.
        """
        check_fitted(self, "class_hypervectors_")
        hypervectors = check_matrix(
            hypervectors, "hypervectors", n_columns=self.class_hypervectors_.shape[1]
        )
        return dot_similarity(hypervectors, self.class_hypervectors_)

    def hamming_distances(self, hypervectors: np.ndarray) -> np.ndarray:
        """Normalised Hamming distance of each sample to each class hypervector."""
        check_fitted(self, "class_hypervectors_")
        hypervectors = check_matrix(
            hypervectors, "hypervectors", n_columns=self.class_hypervectors_.shape[1]
        )
        return hamming_distance(hypervectors, self.class_hypervectors_)

    def predict(self, hypervectors: np.ndarray) -> np.ndarray:
        """Predict integer class labels for encoded samples (Eq. 4)."""
        return np.argmax(self.decision_scores(hypervectors), axis=1)

    # ------------------------------------------------------ packed inference
    def supports_packed_scoring(self) -> bool:
        """True when this classifier's scoring has an exact packed twin.

        By default that means the shared dot-similarity rule.  A classifier
        that overrides :meth:`decision_scores` is assumed bespoke (non-binary
        LeHDC's cosine scoring): ``HDCPipeline`` and
        :mod:`repro.eval.experiment` score it dense, while
        ``PackedInferenceEngine`` and model files
        (:func:`~repro.io.check_savable`) refuse it.  A classifier whose
        bespoke rule *does* reduce to XOR + popcount — the multi-model
        ensemble's max-over-sub-models — overrides this together with
        :meth:`packed_inference_bank`, whose best row per class
        :meth:`decision_scores_packed` scores.
        """
        return type(self).decision_scores is HDCClassifierBase.decision_scores

    def decision_scores_packed(self, packed_queries: PackedHypervectors) -> np.ndarray:
        """``(n, K)`` integer dot scores computed entirely over packed words.

        Scores :meth:`packed_inference_bank` with
        :func:`~repro.kernels.packed.bank_scores` (the best row per class).
        Bit-for-bit equal to :meth:`decision_scores` on the corresponding
        dense bipolar queries (``dot = D - 2 * differing_bits``); only valid
        when :meth:`supports_packed_scoring` is true.
        """
        if not self.supports_packed_scoring():
            raise ValueError(
                f"{type(self).__name__} overrides decision_scores; its scoring "
                "cannot be reproduced by the packed kernel (use decision_scores)"
            )
        check_fitted(self, "class_hypervectors_")
        if packed_queries.dimension != self.class_hypervectors_.shape[1]:
            raise ValueError(
                f"dimension mismatch: {packed_queries.dimension} vs "
                f"{self.class_hypervectors_.shape[1]}"
            )
        return bank_scores(
            packed_queries.words,
            self.packed_inference_bank().words,
            packed_queries.dimension,
            self.class_hypervectors_.shape[0],
        )

    def predict_packed(self, packed_queries: PackedHypervectors) -> np.ndarray:
        """Predict labels from bit-packed queries (Eq. 4 via XOR + popcount)."""
        return np.argmax(self.decision_scores_packed(packed_queries), axis=1)

    def score(self, hypervectors: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on encoded samples."""
        hypervectors = check_matrix(hypervectors, "hypervectors")
        labels = check_labels(labels, hypervectors.shape[0])
        return float(np.mean(self.predict(hypervectors) == labels))

    # -------------------------------------------------------------- helpers
    @property
    def dimension_(self) -> int:
        """Hypervector dimension ``D`` of the fitted model."""
        check_fitted(self, "class_hypervectors_")
        return int(self.class_hypervectors_.shape[1])

    def packed_class_hypervectors(self) -> PackedHypervectors:
        """Export the fitted class hypervectors in bit-packed form.

        Returns a :class:`~repro.kernels.packed.PackedHypervectors` holding
        the ``(K, ceil(D/64))`` uint64 words an accelerator (or the serving
        engine) keeps resident — the entire inference-time model.  The packed
        form is cached and invalidated when ``class_hypervectors_`` is
        replaced (every ``fit`` assigns a fresh array).
        """
        check_fitted(self, "class_hypervectors_")
        cache = self._packed_classes_cache
        if cache is None or cache[0] is not self.class_hypervectors_:
            cache = (self.class_hypervectors_, pack_bipolar(self.class_hypervectors_))
            self._packed_classes_cache = cache
        return cache[1]

    def packed_inference_bank(self) -> PackedHypervectors:
        """The packed words the packed scoring rule keeps resident.

        For shared-rule classifiers this is :meth:`packed_class_hypervectors`
        (one row per class); the multi-model ensemble overrides it with its
        flat ``K * N`` model bank.  The serving engine calls it at compile
        time to pre-build the cache and to account resident packed storage —
        which is how the ensemble's linear-in-``N`` storage growth shows up
        in serving metrics.
        """
        return self.packed_class_hypervectors()


__all__ = ["HDCClassifierBase", "cosine_scores", "top_k_from_scores"]
