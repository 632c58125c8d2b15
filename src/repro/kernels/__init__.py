"""Shared hot-path compute kernels.

``repro.kernels`` is the single home for the computations every layer of the
system competes on: bit-packed XOR+popcount scoring (:mod:`.packed`), the
record encoder's fused accumulation (:mod:`.encode`), packed training —
centroid bundling, epoch scoring and ordered accumulator updates
(:mod:`.train`) — and the float dtype and casts behind the NN substrate
(:mod:`.linear`).  Each
kernel is one plain NumPy function; the only parallelism is the BLAS
library's own threads.

Layering: :mod:`repro.hdc`, :mod:`repro.classifiers`, :mod:`repro.nn`,
:mod:`repro.core`, :mod:`repro.eval` and :mod:`repro.serve` all call *down*
into this package; nothing here imports back up.  See
``docs/architecture.md`` for the full data-flow.
"""

from repro.kernels.train import (
    EnsembleScoreboard,
    PackedTrainingSet,
    apply_class_updates,
    bundle_packed,
    flip_fraction_packed,
    score_epoch,
)
from repro.kernels.encode import RecordAccumulator, nested_flip_levels
from repro.kernels.linear import FLOAT_DTYPE, as_float, sign_bipolar
from repro.kernels.packed import (
    PackedHypervectors,
    bank_scores,
    bit_differences_words,
    flip_score_delta,
    pack_bipolar,
    pack_bits,
    pack_flip_mask,
    packed_dot_scores,
    popcount,
    sign_fuse_bits,
    try_pack_bipolar,
    unpack_bipolar,
)

__all__ = [
    "EnsembleScoreboard",
    "FLOAT_DTYPE",
    "PackedHypervectors",
    "PackedTrainingSet",
    "RecordAccumulator",
    "apply_class_updates",
    "as_float",
    "bank_scores",
    "bit_differences_words",
    "bundle_packed",
    "flip_fraction_packed",
    "flip_score_delta",
    "nested_flip_levels",
    "pack_bipolar",
    "pack_bits",
    "pack_flip_mask",
    "packed_dot_scores",
    "popcount",
    "score_epoch",
    "sign_bipolar",
    "sign_fuse_bits",
    "try_pack_bipolar",
    "unpack_bipolar",
]
