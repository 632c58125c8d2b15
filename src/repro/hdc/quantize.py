"""Feature quantisers: map real-valued features to level indices.

The record-based encoder represents each feature value by a level hypervector
from a :class:`~repro.hdc.itemmemory.LevelItemMemory`.  These quantisers learn
the mapping from raw feature values to level indices on the training set and
then apply it consistently to training and test data (clipping out-of-range
test values to the learned range, as a deployed HDC pipeline would).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.validation import check_fitted, check_matrix, check_positive_int


class UniformQuantizer:
    """Equal-width binning of each feature into ``num_levels`` levels.

    The bin edges are computed per-feature from the training data's min/max,
    which matches the ``[min, max]`` value-range convention in Sec. 2.
    Features that are constant on the training set map to level 0.
    """

    def __init__(self, num_levels: int):
        self.num_levels = check_positive_int(num_levels, "num_levels")
        self._minimums: Optional[np.ndarray] = None
        self._ranges: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "UniformQuantizer":
        """Learn per-feature ranges from a ``(samples, features)`` matrix."""
        features = check_matrix(features, "features", dtype=np.float64)
        self._minimums = features.min(axis=0)
        spans = features.max(axis=0) - self._minimums
        # Guard constant features: a zero span would divide by zero; such
        # features carry no information and are pinned to level 0.
        spans[spans == 0] = np.inf
        self._ranges = spans
        return self

    def scale(self, features: np.ndarray) -> np.ndarray:
        """Each value's level coordinate ``s``, without validating *features*.

        :meth:`transform` is ``floor(s)`` clipped to ``[0, num_levels)``, so
        for every level ``t`` in ``1 .. num_levels - 1`` the thermometer bit
        ``[level >= t]`` is ``s >= t``; NaN compares false (level 0) and
        ``+inf`` true (the top level).  *features* must be a fitted-width
        float64 matrix.
        """
        return (features - self._minimums) / self._ranges * self.num_levels

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Map features to integer level indices in ``[0, num_levels)``."""
        check_fitted(self, "_minimums")
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=self._minimums.shape[0]
        )
        # Clip in float before the cast: a level past the int64 range would
        # cast to INT64_MIN.  fmax maps NaN to level 0.
        levels = np.fmin(np.fmax(np.floor(self.scale(features)), 0), self.num_levels - 1)
        return levels.astype(np.int64)

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Convenience: :meth:`fit` then :meth:`transform` on the same data."""
        return self.fit(features).transform(features)


class QuantileQuantizer:
    """Equal-frequency binning: bin edges at training-set quantiles.

    More robust than uniform binning when features have heavy-tailed
    distributions (e.g. accelerometer magnitudes in the HAR/PAMAP-style
    workloads); each level then receives roughly the same number of training
    values.
    """

    def __init__(self, num_levels: int):
        self.num_levels = check_positive_int(num_levels, "num_levels")
        self._edges: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "QuantileQuantizer":
        """Learn per-feature quantile edges from a ``(samples, features)`` matrix."""
        features = check_matrix(features, "features", dtype=np.float64)
        quantiles = np.linspace(0.0, 1.0, self.num_levels + 1)[1:-1]
        # edges shape: (num_levels - 1, n_features)
        self._edges = np.quantile(features, quantiles, axis=0)
        if self._edges.ndim == 1:
            self._edges = self._edges.reshape(-1, features.shape[1])
        return self

    def scale(self, features: np.ndarray) -> np.ndarray:
        """The integer levels, without validating *features*.

        A level is its own level coordinate (see
        :meth:`UniformQuantizer.scale`): ``scale(x) >= t`` is the thermometer
        bit.  ``searchsorted`` over the ``num_levels - 1`` edges already
        lands in ``[0, num_levels)``.
        """
        levels = np.zeros(features.shape, dtype=np.int64)
        if self.num_levels == 1:
            return levels
        for column in range(features.shape[1]):
            levels[:, column] = np.searchsorted(
                self._edges[:, column], features[:, column], side="right"
            )
        return levels

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Map features to integer level indices in ``[0, num_levels)``."""
        check_fitted(self, "_edges")
        n_features = self._edges.shape[1] if self._edges.size else None
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=n_features
        )
        return self.scale(features)

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Convenience: :meth:`fit` then :meth:`transform` on the same data."""
        return self.fit(features).transform(features)


__all__ = ["UniformQuantizer", "QuantileQuantizer"]
