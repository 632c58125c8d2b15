"""Shared hot-path compute kernels.

``repro.kernels`` is the single home for the computations every layer of the
system competes on: bit-packed XOR+popcount scoring (:mod:`.packed`), fused
encoder accumulation (:mod:`.encode`), packed training — centroid bundling,
epoch scoring and ordered accumulator updates (:mod:`.train`) — and the
float dtype policy behind the NN substrate (:mod:`.linear`).  Each kernel is
one plain NumPy function; the only parallelism is the BLAS library's own
threads.

Layering: :mod:`repro.hdc`, :mod:`repro.classifiers`, :mod:`repro.nn`,
:mod:`repro.core`, :mod:`repro.eval` and :mod:`repro.serve` all call *down*
into this package; nothing here imports back up (the only exception is the
lazy encoder-type dispatch inside :func:`~repro.kernels.encode.build_accumulator`).
See ``docs/architecture.md`` for the full data-flow.
"""

from repro.kernels.train import (
    EnsembleScoreboard,
    PackedTrainingSet,
    apply_class_updates,
    bundle_packed,
    flip_fraction_packed,
    score_epoch,
)
from repro.kernels.encode import (
    NGramAccumulator,
    RecordAccumulator,
    build_accumulator,
    nested_flip_levels,
)
from repro.kernels.linear import (
    as_float,
    float_dtype,
    set_float_dtype,
    sign_bipolar,
    use_float_dtype,
)
from repro.kernels.packed import (
    PackedHypervectors,
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
    "NGramAccumulator",
    "PackedHypervectors",
    "PackedTrainingSet",
    "RecordAccumulator",
    "apply_class_updates",
    "as_float",
    "bit_differences_words",
    "build_accumulator",
    "bundle_packed",
    "flip_fraction_packed",
    "flip_score_delta",
    "float_dtype",
    "nested_flip_levels",
    "pack_bipolar",
    "pack_bits",
    "pack_flip_mask",
    "packed_dot_scores",
    "popcount",
    "score_epoch",
    "set_float_dtype",
    "sign_bipolar",
    "sign_fuse_bits",
    "try_pack_bipolar",
    "unpack_bipolar",
    "use_float_dtype",
]
