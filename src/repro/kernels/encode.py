"""The fused encoder kernel: Eq. 1's pre-sign accumulation as one GEMM.

:class:`RecordAccumulator` produces the exact integer accumulation the
dense record encoder defines (Eq. 1), so signing the result reproduces
``RecordEncoder.encode`` bit for bit; it only reorganises the computation.
The level memory is nested — coordinate ``d`` of level ``l`` is the base
level's coordinate, negated once ``l`` reaches the coordinate's flip level
``t_d`` — so ``acc[b, d] = V_0[d] * (sum_f F_f[d] - 2 * sum_f F_f[d] *
[q_bf >= t_d])``.  For each flip level ``t`` the second sum is the
thermometer mask ``[q >= t]`` times the position columns that flip at
``t``; coordinates that never flip are a per-coordinate constant.  Its
:meth:`~RecordAccumulator.packed_signs` goes on from the GEMM straight to
packed sign words, the one packed encode path of offline prediction and
serving.

:class:`~repro.hdc.encoders.RecordEncoder` builds the accumulator and the
serving engine in :mod:`repro.serve.engine` shares the encoder's, so
training, evaluation, and serving ride the same fused kernel.
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, Optional

import numpy as np

#: float32 holds every even integer below 2**25 exactly, so GEMM sums of
#: fewer ±2 terms than this are exact whatever order BLAS adds them in.
_FLOAT32_EXACT_FEATURES = 2**24

_WORD_BITS = 64

#: The packed word: byte ``k`` holds bits ``8k .. 8k+7`` (little-endian), as
#: :func:`repro.kernels.packed.pack_bits` lays them out.
_WORD = np.dtype("<u8")

#: The lock of a caller whose tie-break draws need no serialising.
_NO_LOCK = contextlib.nullcontext()


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
    ``[q >= t]`` of shape ``(L-1, B, N)`` and multiplies the two stacks with
    one ``np.matmul`` into per-slot sums.  :meth:`__call__` scatters them
    back to coordinate order and adds the constant (the integer
    accumulation); :meth:`packed_signs` compares them in slot order against
    the negated constant and scatters only the sign bits.  The inputs are
    ±1, so every partial sum is an even integer of magnitude at most ``2N``
    and float32 GEMM is exact in any summation order for ``N < 2**24``; the
    constructor checks that and raises ``ValueError`` on a level memory
    that is not nested (see :func:`nested_flip_levels`).

    Both calls take each value's level coordinate ``q``: the integer level,
    or anything whose ``q >= t`` is the level's thermometer bit, such as
    :meth:`repro.hdc.quantize.UniformQuantizer.scale`.
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
        # Three zero slots follow the groups.  A coordinate that never flips
        # reads the one whose threshold gives its constant sign: base > 0,
        # base < 0 (also the padding of the last word) or a tie.
        constant = (num_levels - 1) * width
        padded = -(-dimension // _WORD_BITS) * _WORD_BITS
        self._slots = np.full(padded, constant + 1, dtype=np.intp)
        self._slots[:dimension] = constant + np.where(
            self._base > 0, 0, np.where(self._base < 0, 1, 2)
        )
        # The sign of Eq. 1 is sums >= -base, exact in float32.
        self._neg_base = np.zeros(constant + 3, dtype=np.float32)
        self._neg_base[constant:] = (-1.0, 1.0, 0.0)
        for group, (size, stop) in enumerate(zip(group_sizes, stops)):
            columns = by_level[stop - size : stop]
            self._grouped[group, :, :size] = -2 * bound[:, columns]
            slots = group * width + np.arange(size)
            self._slots[columns] = slots
            self._neg_base[slots] = -self._base[columns]
        self._scatter = self._slots[:dimension]
        self._thresholds = np.arange(1, num_levels, dtype=np.float64).reshape(-1, 1, 1)
        self.table_bytes = (
            self._grouped.nbytes + self._slots.nbytes + self._base.nbytes
            + self._neg_base.nbytes
        )

    def _slot_sums(self, levels: np.ndarray) -> np.ndarray:
        """``(B, slots)`` float32 GEMM sums; the constant slots read 0."""
        batch = levels.shape[0]
        groups, _, width = self._grouped.shape
        sums = np.zeros((batch, groups * width + 3), dtype=np.float32)
        np.matmul(
            (levels >= self._thresholds).astype(np.float32),
            self._grouped,
            out=sums[:, : groups * width].reshape(batch, groups, width).transpose(1, 0, 2),
        )
        return sums

    def __call__(self, level_indices: np.ndarray) -> np.ndarray:
        """The ``(B, D)`` int32 pre-sign accumulation of Eq. 1."""
        sums = self._slot_sums(level_indices)
        accumulated = np.take(sums.astype(np.int32), self._scatter, axis=1)
        accumulated += self._base
        return accumulated

    def packed_signs(
        self,
        levels: np.ndarray,
        tie_break: str = "positive",
        rng: Optional[np.random.Generator] = None,
        lock: ContextManager = _NO_LOCK,
    ) -> np.ndarray:
        """Eq. 1's sign, packed: ``(B, ceil(D/64))`` uint64 words.

        Bit-identical to ``pack_bits(sign_fuse_bits(self(levels)))``.  For
        ``tie_break="random"`` the ties draw from *rng* in coordinate order,
        as :func:`repro.hdc.hypervector.sign_with_ties` does, and the draw
        runs under *lock*.
        """
        sums = self._slot_sums(levels)
        bits = np.take(sums >= self._neg_base, self._slots, axis=1, mode="clip")
        if tie_break == "random":
            ties = np.take(sums == self._neg_base, self._slots, axis=1, mode="clip")
            count = int(np.count_nonzero(ties))
            if count:
                with lock:
                    draws = rng.integers(0, 2, size=count, dtype=np.int8)
                bits[ties] = draws == 1
        elif tie_break != "positive":
            raise ValueError(
                f"tie_break must be 'random' or 'positive', got {tie_break!r}"
            )
        return np.packbits(bits, axis=1, bitorder="little").view(_WORD)


__all__ = ["RecordAccumulator", "nested_flip_levels"]
