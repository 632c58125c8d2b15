"""Fused encoder kernels: pre-sign accumulation for record and n-gram encoders.

Both accumulators produce the exact integer accumulation the dense encoders
define (Eq. 1), so signing the result reproduces ``Encoder.encode``
bit-for-bit; they only reorganise the computation:

* :class:`RecordAccumulator` evaluates Eq. 1 as one stacked float32 GEMM.
  The level memory is nested — coordinate ``d`` of level ``l`` is the base
  level's coordinate, negated once ``l`` reaches the coordinate's flip level
  ``t_d`` — so ``acc[b, d] = V_0[d] * (sum_f F_f[d] - 2 * sum_f F_f[d] *
  [q_bf >= t_d])``.  For each flip level ``t`` the second sum is the
  thermometer mask ``[q >= t]`` times the position columns that flip at
  ``t``; coordinates that never flip are a per-coordinate constant;
* :class:`NGramAccumulator` hoists the per-call codebook permutations out of
  the request path and evaluates all binding windows of a block at once with
  a rolled gather per n-gram offset, instead of a Python loop over windows.

The encoders in :mod:`repro.hdc.encoders` and the serving engine in
:mod:`repro.serve.engine` both build their accumulator through
:func:`build_accumulator`, so training, evaluation, and serving ride the same
fused kernel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

#: Byte cap on the int8 gather scratch of a single n-gram accumulation block.
_SCRATCH_BYTES = 32 * 1024 * 1024

#: A block's partial sums are reduced in int16; each gathered element is ±1,
#: so at most this many may be summed per output element in one reduction.
_INT16_HEADROOM = 32767

#: float32 holds every even integer below 2**25 exactly, so GEMM sums of
#: fewer ±2 terms than this are exact whatever order BLAS adds them in.
_FLOAT32_EXACT_FEATURES = 2**24


def nested_flip_levels(level_vectors: np.ndarray) -> np.ndarray:
    """The level at which each coordinate of a nested level memory flips.

    A level memory is *nested* when every coordinate keeps the base level's
    value up to some level ``t_d`` and is negated from there on, which is
    how :class:`~repro.hdc.itemmemory.LevelItemMemory` builds it.  Returns
    ``t_d`` per coordinate (``num_levels`` for a coordinate that never
    flips); raises ``ValueError`` when the memory is not nested, for example
    when a coordinate flips twice.
    """
    levels = np.asarray(level_vectors).astype(np.int32)
    num_levels = levels.shape[0]
    base = levels[0]
    flip_levels = num_levels - np.count_nonzero(levels != base, axis=0)
    nested = np.where(np.arange(num_levels)[:, None] >= flip_levels, -base, base)
    bad = np.flatnonzero((nested != levels).any(axis=0))
    if bad.size:
        raise ValueError(
            "level memory is not nested: every coordinate must flip at most "
            f"once, from the base level's value to its negation ({bad.size} "
            f"coordinates do not, e.g. coordinate {int(bad[0])})"
        )
    return flip_levels


class RecordAccumulator:
    """Pre-sign accumulation for the record encoder as one grouped GEMM.

    The constructor binds every position vector with the base level
    ``V_0``, sums the bound columns into a per-coordinate constant, and lays
    the bound columns out by flip level as a zero-padded ``(L-1, N, G)``
    float32 stack (``G`` is the largest number of coordinates sharing a
    flip level).  A call builds the contiguous thermometer mask
    ``[q >= t]`` of shape ``(L-1, B, N)``, multiplies the two stacks with
    one ``np.matmul``, and scatters the products back to coordinate order
    through a precomputed index.  The inputs are ±1, so every partial sum
    is an even integer of magnitude at most ``2N`` and float32 GEMM is exact
    in any summation order for ``N < 2**24``; the constructor checks that
    and raises ``ValueError`` on a level memory that is not nested (see
    :func:`nested_flip_levels`).
    """

    def __init__(self, position_vectors: np.ndarray, level_vectors: np.ndarray):
        num_features, dimension = position_vectors.shape
        if num_features >= _FLOAT32_EXACT_FEATURES:
            raise ValueError(
                f"{num_features} features exceed the {_FLOAT32_EXACT_FEATURES} "
                "a float32 GEMM can sum exactly"
            )
        num_levels = level_vectors.shape[0]
        flip_levels = nested_flip_levels(level_vectors)
        bound = position_vectors.astype(np.float32) * level_vectors[0].astype(np.float32)
        self._base = bound.sum(axis=0).astype(np.int32)

        # Group t-1 holds the coordinates that flip at level t (1 <= t < L);
        # -2 * bound folds the "- 2 *" of Eq. 1 into the table.
        group_sizes = np.bincount(flip_levels, minlength=num_levels + 1)[1:num_levels]
        width = int(group_sizes.max()) if group_sizes.size else 0
        by_level = np.argsort(flip_levels, kind="stable")
        stops = np.cumsum(group_sizes)
        self._grouped = np.zeros((num_levels - 1, num_features, width), dtype=np.float32)
        # Coordinates that never flip read the zero column after the groups.
        self._scatter = np.full(dimension, (num_levels - 1) * width, dtype=np.intp)
        for group, (size, stop) in enumerate(zip(group_sizes, stops)):
            columns = by_level[stop - size : stop]
            self._grouped[group, :, :size] = -2 * bound[:, columns]
            self._scatter[columns] = group * width + np.arange(size)
        self._thresholds = np.arange(1, num_levels).reshape(-1, 1, 1)
        self.table_bytes = self._grouped.nbytes + self._scatter.nbytes + self._base.nbytes

    def __call__(self, level_indices: np.ndarray) -> np.ndarray:
        batch = level_indices.shape[0]
        groups, _, width = self._grouped.shape
        mask = (level_indices >= self._thresholds).astype(np.float32)
        sums = np.empty((batch, groups * width + 1), dtype=np.float32)
        sums[:, -1] = 0.0
        np.matmul(
            mask,
            self._grouped,
            out=sums[:, :-1].reshape(batch, groups, width).transpose(1, 0, 2),
        )
        accumulated = np.take(sums.astype(np.int32), self._scatter, axis=1)
        accumulated += self._base
        return accumulated


class NGramAccumulator:
    """Pre-sign accumulation for the n-gram encoder, fully vectorised.

    The ``ngram`` permuted copies of the level codebook are built once; each
    call then evaluates *all* binding windows of a block in one shot: for
    offset ``o`` the rolled gather ``codebook[o][levels[:, o : o + W]]``
    yields every window's ``o``-th factor at once (``W`` windows), the
    factors multiply element-wise (products of ±1 stay ±1, so int8 never
    overflows) and a single C-level reduction bundles the windows.  Window
    blocks bound the ``(batch, W, D)`` int8 scratch.
    """

    def __init__(self, level_vectors: np.ndarray, ngram: int):
        codebook = level_vectors.astype(np.int8)
        self.ngram = int(ngram)
        self._codebooks = [
            np.roll(codebook, offset, axis=1) for offset in range(self.ngram)
        ]
        self._dimension = codebook.shape[1]
        self.table_bytes = sum(book.nbytes for book in self._codebooks)

    def __call__(self, level_indices: np.ndarray) -> np.ndarray:
        batch, num_features = level_indices.shape
        num_windows = num_features - self.ngram + 1
        if num_windows < 1:
            raise ValueError(
                f"ngram={self.ngram} exceeds the number of features {num_features}"
            )
        accumulated = np.zeros((batch, self._dimension), dtype=np.int32)
        block = max(1, _SCRATCH_BYTES // max(1, batch * self._dimension))
        block = min(block, _INT16_HEADROOM)
        for start in range(0, num_windows, block):
            stop = min(start + block, num_windows)
            gram = self._codebooks[0][level_indices[:, start:stop]]
            for offset in range(1, self.ngram):
                gram *= self._codebooks[offset][
                    level_indices[:, start + offset : stop + offset]
                ]
            accumulated += gram.sum(axis=1, dtype=np.int16)
            # Release the window-block scratch before the next gather so the
            # allocator hands back the same hot, already-faulted buffer.
            del gram
        return accumulated


def build_accumulator(encoder) -> Optional[object]:
    """Compile the fused accumulator for a fitted encoder, or ``None``.

    Dispatches on the encoder type; unknown encoder classes get ``None`` so
    callers can fall back to ``encoder.encode``.
    """
    from repro.hdc.encoders import NGramEncoder, RecordEncoder

    if isinstance(encoder, NGramEncoder):
        return NGramAccumulator(encoder.level_memory.vectors, encoder.ngram)
    if isinstance(encoder, RecordEncoder):
        return RecordAccumulator(
            encoder.position_memory.vectors, encoder.level_memory.vectors
        )
    return None


__all__ = [
    "NGramAccumulator",
    "RecordAccumulator",
    "build_accumulator",
    "nested_flip_levels",
]
