"""Weight initialisation.

LeHDC initialises its latent class-hypervector matrix with small uniform
values (BinaryConnect-style), so early sign flips are cheap; the non-binary
variant initialises its real weights the same way.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.linear import float_dtype
from repro.utils.rng import SeedLike, ensure_rng


def scaled_uniform_init(
    shape, scale: float = 0.01, seed: SeedLike = None, dtype=None
) -> np.ndarray:
    """Uniform values in ``[-scale, +scale]``.

    *dtype* defaults to the kernel layer's float policy dtype
    (:func:`repro.kernels.linear.float_dtype`, ``float32`` by default).
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = ensure_rng(seed)
    values = rng.uniform(-scale, scale, size=shape)
    return values.astype(float_dtype() if dtype is None else dtype, copy=False)


__all__ = ["scaled_uniform_init"]
