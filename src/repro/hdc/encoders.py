"""HDC encoders: map raw feature vectors to bipolar sample hypervectors.

The paper's case study (and this reproduction's default) is the
*record-based* encoder of Eq. 1:

.. math::

    H = sgn\\Big(\\sum_{i=1}^{N} F_i \\circ V_{f_i}\\Big)

where ``F_i`` is the (quasi-orthogonal) position hypervector of feature *i*
and ``V_{f_i}`` the (correlated) level hypervector of that feature's
quantised value.  An *N-gram* encoder is also provided because the paper
notes LeHDC is encoder-agnostic; it lets the test-suite and examples
demonstrate that the training strategies plug into either encoder unchanged.

Both encoders share the :class:`Encoder` interface: ``fit`` learns the
quantiser (and builds the item memories), ``encode`` maps a feature matrix to
a ``(samples, D)`` int8 hypervector matrix, and ``encode_packed`` goes
straight to bit-packed words without the dense intermediate.  The pre-sign
accumulation itself runs on the fused kernels in :mod:`repro.kernels.encode`
— the *same* kernels the serving engine compiles against, so training,
evaluation and serving cannot drift apart.  ``encode_packed`` and the
serving engine share one more step, :meth:`Encoder._pack`: for the record
encoder that is :meth:`~repro.kernels.encode.RecordAccumulator.packed_signs`
over the quantiser's level coordinates.
"""

from __future__ import annotations

import abc
from typing import ContextManager, Optional

import numpy as np

from repro.hdc.hypervector import BIPOLAR_DTYPE, sign_with_ties
from repro.hdc.itemmemory import LevelItemMemory, RandomItemMemory
from repro.hdc.quantize import QuantileQuantizer, UniformQuantizer
from repro.kernels.encode import _NO_LOCK, build_accumulator
from repro.kernels.packed import PackedHypervectors, pack_bits, sign_fuse_bits
from repro.utils.rng import RngMixin, SeedLike
from repro.utils.validation import check_fitted, check_matrix, check_positive_int


class Encoder(RngMixin, abc.ABC):
    """Common interface for HDC encoders.

    Parameters
    ----------
    dimension:
        Hypervector dimension ``D``.
    num_levels:
        Number of quantisation levels for feature values.
    quantizer:
        ``"uniform"`` (equal-width bins) or ``"quantile"`` (equal-frequency).
    tie_break:
        How ``sgn(0)`` is resolved; see :func:`repro.hdc.hypervector.sign_with_ties`.
    seed:
        Seed or generator controlling item-memory construction and tie-breaks.
    """

    def __init__(
        self,
        dimension: int = 10_000,
        num_levels: int = 32,
        quantizer: str = "uniform",
        tie_break: str = "random",
        seed: SeedLike = None,
    ):
        super().__init__(seed=seed)
        self.dimension = check_positive_int(dimension, "dimension")
        self.num_levels = check_positive_int(num_levels, "num_levels")
        if quantizer not in ("uniform", "quantile"):
            raise ValueError(
                f"quantizer must be 'uniform' or 'quantile', got {quantizer!r}"
            )
        if tie_break not in ("random", "positive"):
            raise ValueError(
                f"tie_break must be 'random' or 'positive', got {tie_break!r}"
            )
        self.quantizer_kind = quantizer
        self.tie_break = tie_break
        self.num_features: Optional[int] = None
        self.position_memory: Optional[RandomItemMemory] = None
        self.level_memory: Optional[LevelItemMemory] = None
        self._quantizer = None
        self._accumulator = None

    # ------------------------------------------------------------------ fit
    def fit(self, features: np.ndarray) -> "Encoder":
        """Learn the quantiser and build item memories for *features*."""
        features = check_matrix(features, "features", dtype=np.float64)
        self.num_features = features.shape[1]
        quantizer_cls = (
            UniformQuantizer if self.quantizer_kind == "uniform" else QuantileQuantizer
        )
        self._quantizer = quantizer_cls(self.num_levels)
        self._quantizer.fit(features)
        self.position_memory = RandomItemMemory(
            self.num_features, self.dimension, seed=self.rng
        )
        self.level_memory = LevelItemMemory(
            self.num_levels, self.dimension, seed=self.rng
        )
        self._accumulator = None  # item memories changed; recompile lazily
        return self

    # --------------------------------------------------------------- encode
    def _get_accumulator(self):
        """The compiled fused accumulator (built lazily, rebuilt after ``fit``)."""
        if self._accumulator is None:
            accumulator = build_accumulator(self)
            if accumulator is None:  # pragma: no cover - future encoders
                raise NotImplementedError(
                    f"no fused kernel for {type(self).__name__}; override _accumulate"
                )
            self._accumulator = accumulator
        return self._accumulator

    def _accumulate(self, levels: np.ndarray) -> np.ndarray:
        """The *pre-sign* integer accumulation for a batch of level rows."""
        return self._get_accumulator()(levels)

    def _quantize(self, features: np.ndarray) -> np.ndarray:
        """What the accumulator reads for validated *features*: the levels."""
        return self._quantizer.transform(features)

    def _pack(self, features: np.ndarray, lock: ContextManager = _NO_LOCK) -> np.ndarray:
        """Packed ``(n, ceil(D/64))`` uint64 words for validated *features*.

        The sign of the raw accumulation *is* the packed bit
        (:func:`repro.kernels.packed.sign_fuse_bits`); the ``sgn(0)`` draws
        of ``tie_break="random"`` run under *lock*, the accumulation outside
        it.  :meth:`encode_packed` and the serving engine both encode here.
        """
        raw = self._accumulate(self._quantize(features))
        if self.tie_break == "random":
            with lock:
                bits = sign_fuse_bits(raw, tie_break="random", rng=self.rng)
        else:
            bits = sign_fuse_bits(raw, tie_break="positive")
        return pack_bits(bits, self.dimension).words

    def accumulate(self, features: np.ndarray) -> np.ndarray:
        """Pre-sign integer accumulation for raw *features* (``(n, D)`` int32).

        This is the thread-safe half of encoding — it touches only immutable
        compiled tables, no RNG.
        """
        check_fitted(self, "_quantizer")
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=self.num_features
        )
        return self._accumulate(self._quantize(features))

    def encode(self, features: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Encode a ``(samples, features)`` matrix to ``(samples, D)`` int8."""
        check_fitted(self, "_quantizer")
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=self.num_features
        )
        levels = self._quantize(features)
        outputs = np.empty((features.shape[0], self.dimension), dtype=BIPOLAR_DTYPE)
        for start in range(0, features.shape[0], batch_size):
            stop = min(start + batch_size, features.shape[0])
            raw = self._accumulate(levels[start:stop])
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
        check_fitted(self, "_quantizer")
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=self.num_features
        )
        num_words = (self.dimension + 63) // 64
        words = np.empty((features.shape[0], num_words), dtype=np.uint64)
        for start in range(0, features.shape[0], batch_size):
            stop = min(start + batch_size, features.shape[0])
            words[start:stop] = self._pack(features[start:stop])
        return PackedHypervectors(words=words, dimension=self.dimension)

    def fit_encode(self, features: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Convenience: :meth:`fit` then :meth:`encode` on the same data."""
        return self.fit(features).encode(features, batch_size=batch_size)

    def encode_one(self, feature_vector: np.ndarray) -> np.ndarray:
        """Encode a single sample; returns a 1-D hypervector of length ``D``."""
        return self.encode(np.atleast_2d(feature_vector))[0]


class RecordEncoder(Encoder):
    """Record-based encoder of Eq. 1 (position-value binding + bundling).

    Each feature contributes ``F_i ∘ V_{level(x_i)}``; contributions are summed
    over features and binarised.  This is the encoder used for every
    experiment in the paper's evaluation.  The bind+bundle runs as one
    grouped float32 GEMM per batch (:class:`repro.kernels.encode.RecordAccumulator`),
    which relies on the level memory being nested: each coordinate flips
    once, at its own level.  :class:`~repro.hdc.itemmemory.LevelItemMemory`
    builds it that way, and the accumulator rejects one that is not.

    The accumulator reads the quantiser's level coordinates
    (:meth:`~repro.hdc.quantize.UniformQuantizer.scale`) instead of the
    integer levels: the thermometer bits are the same, with no floor, clip
    or cast, and packed encoding is one
    :meth:`~repro.kernels.encode.RecordAccumulator.packed_signs` call.
    """

    def _quantize(self, features: np.ndarray) -> np.ndarray:
        return self._quantizer.scale(features)

    def _pack(self, features: np.ndarray, lock: ContextManager = _NO_LOCK) -> np.ndarray:
        return self._get_accumulator().packed_signs(
            self._quantize(features), self.tie_break, self.rng, lock
        )


class NGramEncoder(Encoder):
    """N-gram encoder: bind permuted value hypervectors of adjacent features.

    Every window of ``n`` consecutive features is bound into a single
    n-gram hypervector ``V_{f_i} ∘ ρ(V_{f_{i+1}}) ∘ ... ∘ ρ^{n-1}(V_{f_{i+n-1}})``
    (``ρ`` is the cyclic permutation); n-grams are then bundled.  Feature
    positions are implicit in the permutation depth, so no position memory is
    consumed at encode time (it is still built by ``fit`` for interface
    uniformity).  The window binding runs on the vectorised rolled-gather
    kernel (:class:`repro.kernels.encode.NGramAccumulator`).
    """

    def __init__(
        self,
        dimension: int = 10_000,
        num_levels: int = 32,
        ngram: int = 3,
        quantizer: str = "uniform",
        tie_break: str = "random",
        seed: SeedLike = None,
    ):
        super().__init__(
            dimension=dimension,
            num_levels=num_levels,
            quantizer=quantizer,
            tie_break=tie_break,
            seed=seed,
        )
        self.ngram = check_positive_int(ngram, "ngram")

    def fit(self, features: np.ndarray) -> "NGramEncoder":
        features = check_matrix(features, "features", dtype=np.float64)
        if features.shape[1] < self.ngram:
            raise ValueError(
                f"ngram={self.ngram} exceeds the number of features {features.shape[1]}"
            )
        super().fit(features)
        return self


__all__ = ["Encoder", "RecordEncoder", "NGramEncoder"]
