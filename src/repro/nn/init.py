"""Weight initialisers.

LeHDC's latent class-hypervector matrix can be initialised three ways, all of
which appear in the BNN literature the paper draws on:

* :func:`scaled_uniform_init` - small uniform values (BinaryConnect-style),
  so early sign flips are cheap;
* :func:`normal_init` - Gaussian values, the common dense-layer default;
* :func:`sign_init` - start from an existing bipolar matrix, e.g. the
  baseline HDC centroids (Eq. 2), which warm-starts training from the
  classical HDC solution.
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


def normal_init(shape, std: float = 0.01, seed: SeedLike = None, dtype=None) -> np.ndarray:
    """Zero-mean Gaussian values with standard deviation *std*."""
    if std <= 0:
        raise ValueError(f"std must be positive, got {std}")
    rng = ensure_rng(seed)
    values = rng.normal(0.0, std, size=shape)
    return values.astype(float_dtype() if dtype is None else dtype, copy=False)


def sign_init(bipolar: np.ndarray, magnitude: float = 0.01, dtype=None) -> np.ndarray:
    """Latent weights whose signs equal *bipolar* with small magnitude.

    Binarising the returned matrix recovers *bipolar* exactly, so a LeHDC model
    initialised this way starts from the given class hypervectors (typically
    the baseline centroids) and improves from there.
    """
    if magnitude <= 0:
        raise ValueError(f"magnitude must be positive, got {magnitude}")
    bipolar = np.asarray(bipolar)
    if not np.all(np.isin(bipolar, (-1, 1))):
        raise ValueError("sign_init expects entries in {+1, -1}")
    target = float_dtype() if dtype is None else np.dtype(dtype)
    return bipolar.astype(target) * target.type(magnitude)


__all__ = ["scaled_uniform_init", "normal_init", "sign_init"]
