"""The record-based encoder: raw feature vectors to bipolar sample hypervectors.

The paper encodes with Eq. 1, and so does every experiment here:

.. math::

    H = sgn\\Big(\\sum_{i=1}^{N} F_i \\circ V_{f_i}\\Big)

where ``F_i`` is the (quasi-orthogonal) position hypervector of feature *i*
and ``V_{f_i}`` the (correlated) level hypervector of that feature's
quantised value.

:class:`RecordEncoder` learns a :class:`~repro.hdc.quantize.UniformQuantizer`
and builds the item memories in ``fit``; ``encode`` maps a feature matrix to
a ``(samples, D)`` int8 hypervector matrix, and ``encode_packed`` goes
straight to bit-packed words without the dense intermediate.  The pre-sign
accumulation runs on :class:`~repro.kernels.encode.RecordAccumulator`, the
*same* kernel the serving engine compiles against, so training, evaluation
and serving cannot drift apart.
"""

from __future__ import annotations

from typing import ContextManager, Optional

import numpy as np

from repro.hdc.hypervector import BIPOLAR_DTYPE, sign_with_ties
from repro.hdc.itemmemory import LevelItemMemory, RandomItemMemory
from repro.hdc.quantize import UniformQuantizer
from repro.kernels.encode import _NO_LOCK, RecordAccumulator
from repro.kernels.packed import PackedHypervectors
from repro.utils.rng import RngMixin, SeedLike
from repro.utils.validation import check_fitted, check_matrix, check_positive_int


class RecordEncoder(RngMixin):
    """Record-based encoder of Eq. 1 (position-value binding + bundling).

    Each feature contributes ``F_i ∘ V_{level(x_i)}``; contributions are summed
    over features and binarised.  The bind+bundle runs as one grouped float32
    GEMM per batch (:class:`~repro.kernels.encode.RecordAccumulator`), which
    relies on the level memory being nested: each coordinate flips once, at
    its own level.  :class:`~repro.hdc.itemmemory.LevelItemMemory` builds it
    that way, and the accumulator rejects one that is not.

    The accumulator reads the quantiser's level coordinates
    (:meth:`~repro.hdc.quantize.UniformQuantizer.scale`) instead of the
    integer levels: the thermometer bits are the same, with no floor, clip
    or cast, and packed encoding is one
    :meth:`~repro.kernels.encode.RecordAccumulator.packed_signs` call.

    Parameters
    ----------
    dimension:
        Hypervector dimension ``D``.
    num_levels:
        Number of equal-width quantisation levels for feature values.
    tie_break:
        How ``sgn(0)`` is resolved; see :func:`repro.hdc.hypervector.sign_with_ties`.
    seed:
        Seed or generator controlling item-memory construction and tie-breaks.
    """

    def __init__(
        self,
        dimension: int = 10_000,
        num_levels: int = 32,
        tie_break: str = "random",
        seed: SeedLike = None,
    ):
        super().__init__(seed=seed)
        self.dimension = check_positive_int(dimension, "dimension")
        self.num_levels = check_positive_int(num_levels, "num_levels")
        if tie_break not in ("random", "positive"):
            raise ValueError(
                f"tie_break must be 'random' or 'positive', got {tie_break!r}"
            )
        self.tie_break = tie_break
        self.num_features: Optional[int] = None
        self.position_memory: Optional[RandomItemMemory] = None
        self.level_memory: Optional[LevelItemMemory] = None
        self._quantizer: Optional[UniformQuantizer] = None
        self._accumulator: Optional[RecordAccumulator] = None

    # ------------------------------------------------------------------ fit
    def fit(self, features: np.ndarray) -> "RecordEncoder":
        """Learn the quantiser and build item memories for *features*."""
        features = check_matrix(features, "features", dtype=np.float64)
        self.num_features = features.shape[1]
        self._quantizer = UniformQuantizer(self.num_levels).fit(features)
        self.position_memory = RandomItemMemory(
            self.num_features, self.dimension, seed=self.rng
        )
        self.level_memory = LevelItemMemory(
            self.num_levels, self.dimension, seed=self.rng
        )
        self._accumulator = None  # item memories changed; recompile lazily
        return self

    # --------------------------------------------------------------- encode
    def _get_accumulator(self) -> RecordAccumulator:
        """The compiled fused accumulator (built lazily, rebuilt after ``fit``)."""
        if self._accumulator is None:
            self._accumulator = RecordAccumulator(
                self.position_memory.vectors, self.level_memory.vectors
            )
        return self._accumulator

    def _validate(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self, "_quantizer")
        return check_matrix(
            features, "features", dtype=np.float64, n_columns=self.num_features
        )

    def _pack(self, features: np.ndarray, lock: ContextManager = _NO_LOCK) -> np.ndarray:
        """Packed ``(n, ceil(D/64))`` uint64 words for validated *features*.

        The ``sgn(0)`` draws of ``tie_break="random"`` run under *lock*, the
        accumulation outside it.  :meth:`encode_packed` and the serving
        engine both encode here.
        """
        return self._get_accumulator().packed_signs(
            self._quantizer.scale(features), self.tie_break, self.rng, lock
        )

    def encode(self, features: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Encode a ``(samples, features)`` matrix to ``(samples, D)`` int8."""
        features = self._validate(features)
        levels = self._quantizer.scale(features)
        accumulator = self._get_accumulator()
        outputs = np.empty((features.shape[0], self.dimension), dtype=BIPOLAR_DTYPE)
        for start in range(0, features.shape[0], batch_size):
            stop = min(start + batch_size, features.shape[0])
            raw = accumulator(levels[start:stop])
            outputs[start:stop] = sign_with_ties(
                raw, rng=self.rng, tie_break=self.tie_break
            )
        return outputs

    def encode_packed(
        self, features: np.ndarray, batch_size: int = 256
    ) -> PackedHypervectors:
        """Encode straight to bit-packed words, skipping the dense intermediate.

        The int8 hypervector matrix never exists.  RNG draws for ``sgn(0)``
        tie-breaks mirror :meth:`encode` exactly, keeping this path
        bit-identical to ``pack_bipolar(self.encode(features))``.
        """
        features = self._validate(features)
        num_words = (self.dimension + 63) // 64
        words = np.empty((features.shape[0], num_words), dtype=np.uint64)
        for start in range(0, features.shape[0], batch_size):
            stop = min(start + batch_size, features.shape[0])
            words[start:stop] = self._pack(features[start:stop])
        return PackedHypervectors(words=words, dimension=self.dimension)


__all__ = ["RecordEncoder"]
