"""The float dtype policy, and the casts and sign kernel behind the NN substrate.

The seed code forced ``np.asarray(..., dtype=np.float64)`` on every
forward/backward call, up-casting the entire training hot path (the encoded
hypervectors are int8; the latent weights need nowhere near 53 bits of
mantissa).  The policy here replaces that:

* :func:`float_dtype` is the dtype used when floats are *introduced*
  (parameter initialisation, casting integer hypervectors for training),
  ``float32`` by default and overridable via ``REPRO_FLOAT_DTYPE``,
  :func:`set_float_dtype` or the :func:`use_float_dtype` context manager;
* :func:`as_float` casts *integer* inputs to that dtype and leaves arrays
  that are already floating point untouched — no silent up- or down-casts
  anywhere on the training path; :func:`float_dtype_of` names that dtype
  without casting;
* :func:`sign_bipolar` binarises latent weights (Eq. 8, zeros map to +1)
  in the dtype of its input.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

import numpy as np

#: Dtype forced via set_float_dtype/use_float_dtype; None defers to the env.
_FLOAT_DTYPE: Optional[np.dtype] = None


def float_dtype() -> np.dtype:
    """The dtype used when floats are introduced (init, int->float casts)."""
    if _FLOAT_DTYPE is not None:
        return _FLOAT_DTYPE
    return _validate_float_dtype(os.environ.get("REPRO_FLOAT_DTYPE", "float32"))


def set_float_dtype(dtype) -> None:
    """Force the float policy dtype (``None`` re-enables env resolution)."""
    global _FLOAT_DTYPE
    _FLOAT_DTYPE = None if dtype is None else _validate_float_dtype(dtype)


@contextmanager
def use_float_dtype(dtype):
    """Temporarily force the float policy dtype within a ``with`` block."""
    previous = _FLOAT_DTYPE
    set_float_dtype(dtype)
    try:
        yield
    finally:
        set_float_dtype(previous)


def _validate_float_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if not np.issubdtype(resolved, np.floating):
        raise ValueError(f"float dtype policy requires a floating dtype, got {resolved}")
    return resolved


def float_dtype_of(array: np.ndarray) -> np.dtype:
    """The float dtype *array* computes in: its own if floating, else the policy's."""
    if np.issubdtype(array.dtype, np.floating):
        return array.dtype
    return np.dtype(float_dtype())


def as_float(array: np.ndarray) -> np.ndarray:
    """View *array* as floating point without churning precision.

    Floating inputs pass through unchanged (whatever their width); anything
    else is cast to the policy dtype.  On the NN path integer hypervectors
    become floats here or, per batch, in :class:`repro.nn.layers.Dropout`.
    """
    array = np.asarray(array)
    return array.astype(float_dtype_of(array), copy=False)


def zeros(shape, dtype=None) -> np.ndarray:
    """A zero array in the policy float dtype (or an explicit *dtype*)."""
    return np.zeros(shape, dtype=float_dtype() if dtype is None else dtype)


def sign_bipolar(values: np.ndarray, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Binarise to ``{+1, -1}`` with ``sgn(0) = +1`` (Eq. 8), dtype-preserving.

    Used for the binary weights ``C = sgn(C_nb)``; the result stays in the
    latent weights' dtype unless *dtype* overrides it.  Computed as
    ``1 - 2 * (values < 0)`` with no per-entry select: ``np.where`` over a
    random sign pattern mispredicts a branch per entry (about 10x slower on
    the 4000x10 latent matrix), and the arithmetic gives the same bits
    (``NaN`` and ``-0.0`` map to +1).
    """
    values = np.asarray(values)
    target = values.dtype if dtype is None else np.dtype(dtype)
    if not np.issubdtype(target, np.floating):
        target = float_dtype()
    signs = np.less(values, 0).astype(target)
    signs *= -2
    signs += 1
    return signs


__all__ = [
    "as_float",
    "float_dtype",
    "float_dtype_of",
    "set_float_dtype",
    "sign_bipolar",
    "use_float_dtype",
    "zeros",
]
