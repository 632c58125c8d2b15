"""Classical nearest-centroid classifier in raw feature space.

The paper observes (Sec. 2.1) that baseline HDC inference "is similar to the
nearest centroid classification in machine learning".  This reference
implementation operates directly on the un-encoded feature vectors and serves
two purposes in the reproduction: a sanity check that the synthetic datasets
are learnable at all, and a concrete demonstration (in tests/examples) of the
analogy the paper draws.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import cosine_scores
from repro.utils.validation import check_fitted, check_labels, check_matrix


class NearestCentroidClassifier:
    """Nearest-centroid classification with Euclidean or cosine distance.

    Parameters
    ----------
    metric:
        ``"euclidean"`` or ``"cosine"``.
    """

    def __init__(self, metric: str = "euclidean"):
        if metric not in ("euclidean", "cosine"):
            raise ValueError(f"metric must be 'euclidean' or 'cosine', got {metric!r}")
        self.metric = metric
        self.centroids_: Optional[np.ndarray] = None
        self.num_classes_: Optional[int] = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "NearestCentroidClassifier":
        """Compute per-class mean feature vectors."""
        features = check_matrix(features, "features", dtype=np.float64)
        labels = check_labels(labels, features.shape[0])
        num_classes = int(labels.max()) + 1
        centroids = np.zeros((num_classes, features.shape[1]), dtype=np.float64)
        counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
        if np.any(counts == 0):
            raise ValueError("every class in [0, max(labels)] must have samples")
        np.add.at(centroids, labels, features)
        centroids /= counts[:, None]
        self.centroids_ = centroids
        self.num_classes_ = num_classes
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Label each sample with the class of its nearest centroid."""
        check_fitted(self, "centroids_")
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=self.centroids_.shape[1]
        )
        if self.metric == "euclidean":
            # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is
            # constant per sample and can be dropped from the argmin.
            cross = features @ self.centroids_.T
            centroid_norms = (self.centroids_**2).sum(axis=1)
            distances = centroid_norms[None, :] - 2.0 * cross
            return np.argmin(distances, axis=1)
        return np.argmax(cosine_scores(features, self.centroids_), axis=1)

    def score(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on raw feature vectors."""
        features = check_matrix(features, "features", dtype=np.float64)
        labels = check_labels(labels, features.shape[0])
        return float(np.mean(self.predict(features) == labels))


__all__ = ["NearestCentroidClassifier"]
