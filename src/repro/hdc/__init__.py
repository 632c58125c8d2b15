"""Hyperdimensional-computing substrate.

This package implements the binary (bipolar) HDC machinery the paper builds
on: hypervector algebra (Sec. 2), orthogonal position and correlated level
item memories, equal-width feature quantisation, the record-based encoder of
Eq. 1, and a bit-packed backend used by the hardware cost model.
"""

from repro.hdc.hypervector import (
    bind,
    bundle,
    dot_similarity,
    hamming_distance,
    random_hypervectors,
    sign_with_ties,
)
from repro.hdc.itemmemory import LevelItemMemory, RandomItemMemory
from repro.hdc.quantize import UniformQuantizer
from repro.hdc.encoders import RecordEncoder
from repro.kernels.packed import PackedHypervectors, pack_bipolar, unpack_bipolar

__all__ = [
    "bind",
    "bundle",
    "dot_similarity",
    "hamming_distance",
    "random_hypervectors",
    "sign_with_ties",
    "RandomItemMemory",
    "LevelItemMemory",
    "UniformQuantizer",
    "RecordEncoder",
    "PackedHypervectors",
    "pack_bipolar",
    "unpack_bipolar",
]
