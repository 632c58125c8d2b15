"""Weight initialisation.

LeHDC initialises its latent class-hypervector matrix with small uniform
values (BinaryConnect-style), so early sign flips are cheap; the non-binary
variant initialises its real weights the same way.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.linear import FLOAT_DTYPE
from repro.utils.rng import SeedLike, ensure_rng

#: Half-width of the uniform initialisation.
INIT_SCALE = 0.01


def scaled_uniform_init(shape, seed: SeedLike = None) -> np.ndarray:
    """Uniform values in ``[-INIT_SCALE, +INIT_SCALE]`` as :data:`FLOAT_DTYPE`."""
    rng = ensure_rng(seed)
    values = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
    return values.astype(FLOAT_DTYPE, copy=False)


__all__ = ["INIT_SCALE", "scaled_uniform_init"]
