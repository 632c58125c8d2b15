"""End-to-end pipeline: encoder + HDC classifier on raw feature vectors.

The classifiers in this package (and :class:`repro.core.LeHDCClassifier`)
take *encoded* hypervectors so experiments can share one encoding pass across
strategies.  :class:`HDCPipeline` is the user-facing composition: give it raw
features and labels and it handles fitting the encoder, encoding, training,
and prediction.  This is the object the quickstart example builds.

Prediction is *packed-native*: when the classifier scores with the shared
dot-similarity rule, queries are encoded straight to bit-packed words
(:meth:`~repro.hdc.encoders.RecordEncoder.encode_packed` — the dense int8
matrix never exists) and scored with the XOR+popcount kernel, with no
unpack→repack round-trips anywhere.  The packed scores equal the dense ones
exactly (``dot = D - 2 * differing_bits``), so predictions are bit-for-bit
identical to the dense path.  Non-binary LeHDC (cosine similarity over real
class hypervectors) is the one classifier without a packed twin; it scores
on the dense path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import HDCClassifierBase, top_k_from_scores
from repro.hdc.encoders import RecordEncoder
from repro.utils.validation import check_labels, check_matrix


class HDCPipeline:
    """Couples a :class:`~repro.hdc.encoders.RecordEncoder` with an HDC classifier.

    Parameters
    ----------
    encoder:
        An unfitted (or pre-fitted) encoder instance.
    classifier:
        Any classifier following the :class:`HDCClassifierBase` interface,
        including :class:`repro.core.LeHDCClassifier`.
    encode_batch_size:
        Batch size forwarded to :meth:`RecordEncoder.encode` to bound memory.
    """

    def __init__(
        self,
        encoder: RecordEncoder,
        classifier: HDCClassifierBase,
        encode_batch_size: int = 256,
    ):
        self.encoder = encoder
        self.classifier = classifier
        self.encode_batch_size = int(encode_batch_size)
        self._fitted = False

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        **fit_kwargs,
    ) -> "HDCPipeline":
        """Fit encoder (if needed), encode *features*, and train the classifier.

        Extra keyword arguments are forwarded to the classifier's ``fit``
        (e.g. validation data for trajectory recording).
        """
        features = check_matrix(features, "features", dtype=np.float64)
        labels = check_labels(labels, features.shape[0])
        if self.encoder.num_features is None:
            self.encoder.fit(features)
        encoded = self.encoder.encode(features, batch_size=self.encode_batch_size)
        self.classifier.fit(encoded, labels, **fit_kwargs)
        self._fitted = True
        return self

    # ------------------------------------------------------------- inference
    def _decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Encode raw *features* and return the ``(n, K)`` decision scores.

        Packed and dense paths return the exact same integer dot scores.
        """
        if not self._fitted:
            raise RuntimeError("HDCPipeline is not fitted yet; call fit() first")
        features = check_matrix(features, "features", dtype=np.float64)
        if self.classifier.supports_packed_scoring():
            packed = self.encoder.encode_packed(
                features, batch_size=self.encode_batch_size
            )
            return self.classifier.decision_scores_packed(packed)
        encoded = self.encoder.encode(features, batch_size=self.encode_batch_size)
        return self.classifier.decision_scores(encoded)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Encode raw *features* and predict class labels."""
        return np.argmax(self._decision_scores(features), axis=1)

    def predict_batch(self, features: np.ndarray):
        """Predict labels and winning-class scores for a batch of raw features.

        Returns ``(labels, scores)`` where ``labels`` is the ``(n,)`` argmax
        prediction and ``scores`` the corresponding decision score (the
        integer dot similarity for binary classifiers).  This is the batched
        label+score surface the serving and evaluation layers build on;
        callers get both outputs from a single encode + similarity pass.
        """
        scores = self._decision_scores(features)
        labels = np.argmax(scores, axis=1)
        return labels, scores[np.arange(scores.shape[0]), labels]

    def top_k(self, features: np.ndarray, k: int = 5):
        """The ``k`` most similar classes per sample, best first.

        Returns ``(labels, scores)``, both of shape ``(n, k)``; ``k`` is
        clipped to the number of classes.
        """
        return top_k_from_scores(self._decision_scores(features), k)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on raw feature vectors."""
        features = check_matrix(features, "features", dtype=np.float64)
        labels = check_labels(labels, features.shape[0])
        return float(np.mean(self.predict(features) == labels))

    @property
    def class_hypervectors_(self) -> Optional[np.ndarray]:
        """The trained ``(K, D)`` class hypervectors (``None`` before fit)."""
        return self.classifier.class_hypervectors_


__all__ = ["HDCPipeline"]
