"""Packed training kernels: centroid bundling, epoch scoring, ordered updates.

PR 2 made *inference* packed-native; this module does the same for the
retraining loop (QuantHD-style Eq. 3, AdaptHD, the enhanced variant).  The
key structural fact it exploits: within one retraining pass the *binary*
class hypervectors are fixed — they are re-signed only after the pass — and
the ``± alpha · H`` accumulator updates are additive.  One epoch therefore
decomposes into

1. **epoch scoring** (:func:`score_epoch`) — one blocked XOR+popcount of the
   whole packed training set against the packed class hypervectors (rides
   :func:`~repro.kernels.packed.bit_differences_words`), instead of one
   dense ``(K, D)`` cast + matvec per sample;
2. **ordered scatter-add** (:func:`apply_class_updates`) — the misclassified
   samples' updates applied to the float accumulators *in visit order*, so
   the floating-point accumulation order — and hence every rounding and every
   ``sgn(0)`` tie — is bit-for-bit the sequential loop's;
3. **re-sign on packed words** — :func:`repro.kernels.packed.sign_fuse_bits`
   + :func:`flip_fraction_packed` replace the dense re-sign and the dense
   flip-count.

:func:`bundle_packed` is the matching fast path for the baseline centroid
bundling (Eq. 2) that seeds every retraining run: per-class bit counts over
packed words instead of an unbuffered ``np.add.at`` over dense int64 rows.

:class:`EnsembleScoreboard` extends the same idea to the SearcHD-style
multi-model ensemble, whose updates are sequential *within* a pass (each
stochastic bit-flip changes the scores later samples see): the whole
``(samples, K * N)`` score matrix is computed once per pass by blocked
XOR+popcount and then maintained *incrementally* — a bit-flip update patches
exactly one column via a sparse flipped-mask popcount
(:func:`~repro.kernels.packed.flip_score_delta`).

Everything here is exact: integer kernels produce the same integers, and the
float scatter-add reproduces the sequential addition order, so classifiers
riding these kernels emit bit-identical models and histories (see
``tests/integration/test_training_parity.py``).
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

from repro.kernels.packed import (
    PackedHypervectors,
    flip_score_delta,
    pack_flip_mask,
    packed_dot_scores,
    popcount,
    try_pack_bipolar,
)

_WORD_BITS = 64


# ------------------------------------------------------------ training set
class PackedTrainingSet:
    """Encode-once view of a training split: packed words + int8 samples.

    Built once per training set and reused across every retraining iteration
    *and* across strategies (the experiment loops share one instance), this
    bundles the two representations the packed training path needs:

    ``packed``
        ``(n, ⌈D/64⌉)`` uint64 words for the epoch scorer.
    ``samples``
        The ``(n, D)`` bipolar samples as contiguous int8 — the accumulator
        updates multiply these rows by a float coefficient, which yields the
        exact same float64 values as the seed's ``astype(np.float64)`` copy
        at an eighth of the memory.
    """

    def __init__(self, packed: PackedHypervectors, samples: np.ndarray):
        samples = np.asarray(samples)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
        if samples.shape[0] != len(packed) or samples.shape[1] != packed.dimension:
            raise ValueError(
                f"samples shape {samples.shape} does not match packed "
                f"({len(packed)}, {packed.dimension})"
            )
        self.packed = packed
        self.samples = samples

    @property
    def num_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def dimension(self) -> int:
        return self.packed.dimension

    @classmethod
    def from_dense(cls, hypervectors: np.ndarray) -> "PackedTrainingSet":
        """Pack a dense bipolar ``(n, D)`` matrix (any ±1-valued dtype)."""
        hypervectors = np.atleast_2d(np.asarray(hypervectors))
        packed = try_pack_bipolar(hypervectors)
        if packed is None:
            raise ValueError(
                "training hypervectors must be bipolar, with entries in {+1, -1}"
            )
        samples = np.ascontiguousarray(hypervectors, dtype=np.int8)
        return cls(packed=packed, samples=samples)

    def require_matches(self, hypervectors: np.ndarray) -> "PackedTrainingSet":
        """Validate that this packed copy describes *hypervectors*.

        The shared guard behind every ``fit(packed_train=…)`` entry point;
        returns ``self`` so call sites can chain.  Besides the shape, the
        first row is spot-checked for equal content, which catches the
        easy-to-make mistake of pairing the packed copy of one split with
        the dense matrix of another (same ``(n, D)``, different data) at
        O(D) cost; full-content verification stays the caller's bargain.
        """
        if (
            self.num_samples != hypervectors.shape[0]
            or self.dimension != hypervectors.shape[1]
        ):
            raise ValueError(
                f"packed_train shape ({self.num_samples}, {self.dimension}) "
                f"does not match hypervectors {hypervectors.shape}"
            )
        if not bool(np.all(self.samples[0] == hypervectors[0])):
            raise ValueError(
                "packed_train content does not match hypervectors "
                "(first row differs); was it built from a different split?"
            )
        return self


# ---------------------------------------------------------- epoch scoring
def score_epoch(
    packed_samples: PackedHypervectors, packed_classes: PackedHypervectors
) -> Tuple[np.ndarray, np.ndarray]:
    """Score the whole training set against fixed packed class hypervectors.

    Returns ``(scores, predicted)`` where ``scores`` is the ``(n, K)`` int64
    dot similarity (equal to the dense ``binary @ sample`` values exactly)
    and ``predicted`` its row argmax — the two quantities one retraining pass
    consumes.  One call replaces the sequential loop's per-sample
    ``(K, D)`` float cast + matvec and rides the blocked
    :func:`~repro.kernels.packed.bit_differences_words`.
    """
    scores = packed_dot_scores(packed_samples, packed_classes)
    return scores, np.argmax(scores, axis=1)


# ------------------------------------------------------- centroid bundling
def unpack_bit_rows(words: np.ndarray, dimension: int) -> np.ndarray:
    """Packed uint64 words -> ``(rows, dimension)`` 0/1 uint8 matrix.

    The expansion behind the bundling kernels, exposed for callers that
    bundle *overlapping* row subsets of the same packed matrix (the
    ensemble's bootstrap initialisation): expanding a group of rows once and
    summing uint8 gathers per subset moves an eighth of the memory the dense
    ``astype(int64)`` path does, while producing the same bit counts.
    """
    return _unpack_bits(words, dimension)


def _unpack_bits(words: np.ndarray, dimension: int) -> np.ndarray:
    """Packed uint64 words -> ``(rows, dimension)`` 0/1 uint8 matrix."""
    if sys.byteorder == "little":
        bits = np.unpackbits(
            np.ascontiguousarray(words).view(np.uint8), axis=1, bitorder="little"
        )
    else:  # pragma: no cover - big-endian hosts
        shifts = np.arange(_WORD_BITS, dtype=np.uint64)
        bits = ((words[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        bits = bits.reshape(words.shape[0], -1)
    return bits[:, :dimension]


def bundle_packed(
    packed: PackedHypervectors, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Class-wise centroid accumulators (Eq. 2) computed over packed words.

    Returns the ``(num_classes, D)`` int64 sum of bipolar sample rows per
    class — exactly what the dense rule ``np.add.at(acc, labels, samples)``
    produces (``sum = 2 * set_bits - class_size``), including zero rows for
    classes absent from ``labels``, so the downstream ``sgn`` sees identical
    integers and draws identical tie-breaks.

    The per-class set-bit counts come from unpacking the rows in
    label-sorted order and segment-summing them with one
    ``np.add.reduceat``; classes absent from ``labels`` keep a zero row
    (``reduceat`` would otherwise repeat a neighbouring segment).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != len(packed):
        raise ValueError(
            f"labels shape {labels.shape} does not match {len(packed)} packed rows"
        )
    if num_classes < 1 or (labels.size and int(labels.max()) >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    bits = _unpack_bits(packed.words, packed.dimension)
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    segment_starts = np.flatnonzero(np.diff(sorted_labels)) + 1
    starts = np.concatenate([[0], segment_starts])
    present = sorted_labels[starts]
    counts = np.zeros((num_classes, packed.dimension), dtype=np.int64)
    counts[present] = np.add.reduceat(bits[order], starts, axis=0, dtype=np.int64)
    class_sizes = np.bincount(labels, minlength=num_classes).astype(np.int64)
    return 2 * counts - class_sizes[:, None]


# ------------------------------------------------------ accumulator updates
def apply_class_updates(
    accumulators: np.ndarray,
    class_indices: np.ndarray,
    coefficients: np.ndarray,
    samples: np.ndarray,
    sample_rows: np.ndarray,
) -> None:
    """Ordered scatter-add of per-sample updates into the class accumulators.

    ``class_indices``, ``coefficients`` and ``sample_rows`` are parallel
    arrays describing one epoch's updates in the exact order the sequential
    loop would apply them; ``samples`` is the bipolar training matrix the
    rows index into.  Modifies ``accumulators`` in place.

    Float addition is not associative, so the update order is part of the
    contract: updates land left-to-right exactly like the sequential
    retraining loop, which keeps every rounding — and therefore every
    later ``sgn(0)`` tie — bit-identical.  (A batched ``np.add.at``
    preserves order too but routes through ufunc.at's generic inner loop,
    which measures ~10x slower than this row loop at D=4000.)
    """
    if not (class_indices.shape[0] == coefficients.shape[0] == sample_rows.shape[0]):
        raise ValueError(
            "class_indices, coefficients and sample_rows must have equal length"
        )
    for position in range(class_indices.shape[0]):
        accumulators[class_indices[position]] += (
            coefficients[position] * samples[sample_rows[position]]
        )


# ------------------------------------------------------ incremental scoring
class EnsembleScoreboard:
    """Incrementally-maintained packed dot scores of samples vs a model bank.

    The SearcHD-style ensemble trains *sequentially*: every visited sample is
    scored against all ``K * N`` binary sub-models, and a misclassification
    flips a sparse random subset of one (or two) sub-models' bits.  The seed
    loop re-ran a full dense ``(K * N, D)`` matmul per sample; this structure
    exploits the two facts that make that rescan redundant:

    * between updates the model bank is *fixed*, so one blocked XOR+popcount
      (:func:`~repro.kernels.packed.packed_dot_scores`) of the whole packed
      training set at the start of a pass yields every score the pass reads;
    * an update touches *one* sub-model, so only that column of the score
      matrix changes — and the change is a popcount over the flipped-bit
      mask against each sample (:func:`~repro.kernels.packed.flip_score_delta`),
      sparse in ``flip_fraction * disagreeing_bits``, not a rescan.

    All arithmetic is integer-exact, so the invariant
    ``scores == packed_dot_scores(samples, bank)`` holds after any sequence
    of :meth:`flip_bits` calls and the visit-time score rows equal the seed
    loop's dense per-sample products bit for bit.

    Parameters
    ----------
    packed_samples:
        The packed training set rows (fixed for the scoreboard's lifetime).
    bank_words:
        ``(models, ceil(D/64))`` uint64 packed model bank, mutated in place
        by :meth:`flip_bits` (bit 1 means ``+1``, as in ``pack_bipolar``).
    dimension:
        The unpacked hypervector dimension ``D``.
    """

    def __init__(
        self,
        packed_samples: PackedHypervectors,
        bank_words: np.ndarray,
        dimension: int,
    ):
        bank_words = np.ascontiguousarray(bank_words, dtype=np.uint64)
        if bank_words.ndim != 2 or bank_words.shape[1] != packed_samples.words.shape[1]:
            raise ValueError(
                f"bank_words shape {bank_words.shape} does not match packed "
                f"samples with {packed_samples.words.shape[1]} words per row"
            )
        if dimension != packed_samples.dimension:
            raise ValueError(
                f"dimension mismatch: {dimension} vs {packed_samples.dimension}"
            )
        self._packed_samples = packed_samples
        self.bank_words = bank_words
        self.dimension = dimension
        self.scores: np.ndarray = np.empty(0)
        self.refresh()

    @property
    def num_models(self) -> int:
        return self.bank_words.shape[0]

    def refresh(self) -> None:
        """Recompute the full ``(samples, models)`` score matrix.

        One blocked XOR+popcount over the packed words — the score-once half
        of the trainer, run at construction.  The incremental deltas are
        exact integers, so the matrix never drifts and training passes keep
        reusing it across pass boundaries; ``refresh`` exists for callers
        that mutate ``bank_words`` outside :meth:`flip_bits`.
        """
        self.scores = packed_dot_scores(
            self._packed_samples,
            PackedHypervectors(self.bank_words, self.dimension),
        )

    def flip_bits(self, model_index: int, positions: np.ndarray) -> None:
        """Flip *positions* of one sub-model and patch its score column.

        ``positions`` are unique bit indices in ``[0, D)`` (the stochastic
        update's chosen disagreeing/agreeing bits).  The packed row is
        updated with one XOR and the score column with the sparse
        flipped-mask delta — no other column changes, because no other
        sub-model changed.
        """
        mask = pack_flip_mask(positions, self.dimension)
        self.bank_words[model_index] ^= mask
        self.scores[:, model_index] += flip_score_delta(
            self._packed_samples.words, self.bank_words[model_index], mask
        )


# ------------------------------------------------------------ flip fraction
def flip_fraction_packed(
    new_packed: PackedHypervectors, old_packed: PackedHypervectors
) -> float:
    """Fraction of class-hypervector bits that flipped, on packed words.

    Equals ``np.mean(new_dense != old_dense)`` exactly: both operands pad
    the last word with zero bits, so the XOR+popcount counts only real
    positions, and the single integer division matches the dense mean.
    Drives the retraining convergence test (``update_fraction < epsilon``).
    """
    if new_packed.dimension != old_packed.dimension or len(new_packed) != len(old_packed):
        raise ValueError(
            f"packed shapes differ: ({len(new_packed)}, {new_packed.dimension}) vs "
            f"({len(old_packed)}, {old_packed.dimension})"
        )
    differing = int(popcount(new_packed.words ^ old_packed.words).sum())
    return differing / float(len(new_packed) * new_packed.dimension)


__all__ = [
    "EnsembleScoreboard",
    "PackedTrainingSet",
    "apply_class_updates",
    "bundle_packed",
    "flip_fraction_packed",
    "score_epoch",
    "unpack_bit_rows",
]
