"""The float dtype, and the casts and sign kernel behind the NN substrate.

The seed code forced ``np.asarray(..., dtype=np.float64)`` on every
forward/backward call, up-casting the entire training hot path (the encoded
hypervectors are int8; the latent weights need nowhere near 53 bits of
mantissa).  The rule here replaces that:

* :data:`FLOAT_DTYPE` (``float32``) is the dtype used when floats are
  *introduced*: parameter initialisation, casting integer hypervectors for
  training;
* :func:`as_float` casts *integer* inputs to it and leaves arrays that are
  already floating point untouched — no silent up- or down-casts anywhere on
  the training path; :func:`float_dtype_of` names that dtype without casting;
* :func:`sign_bipolar` binarises latent weights (Eq. 8, zeros map to +1)
  in the dtype of its input.
"""

from __future__ import annotations

import numpy as np

#: The dtype floats are introduced in (init, int -> float casts).
FLOAT_DTYPE = np.dtype(np.float32)


def float_dtype_of(array: np.ndarray) -> np.dtype:
    """The float dtype *array* computes in: its own if floating, else :data:`FLOAT_DTYPE`."""
    if np.issubdtype(array.dtype, np.floating):
        return array.dtype
    return FLOAT_DTYPE


def as_float(array: np.ndarray) -> np.ndarray:
    """View *array* as floating point without churning precision.

    Floating inputs pass through unchanged (whatever their width); anything
    else is cast to :data:`FLOAT_DTYPE`.  On the NN path integer hypervectors
    become floats here or, per batch, in :class:`repro.nn.layers.Dropout`.
    """
    array = np.asarray(array)
    return array.astype(float_dtype_of(array), copy=False)


def sign_bipolar(values: np.ndarray) -> np.ndarray:
    """Binarise to ``{+1, -1}`` with ``sgn(0) = +1`` (Eq. 8), dtype-preserving.

    Used for the binary weights ``C = sgn(C_nb)``; the result stays in the
    latent weights' dtype (:data:`FLOAT_DTYPE` for integer input).  Computed
    as ``1 - 2 * (values < 0)`` with no per-entry select: ``np.where`` over a
    random sign pattern mispredicts a branch per entry (about 10x slower on
    the 4000x10 latent matrix), and the arithmetic gives the same bits
    (``NaN`` and ``-0.0`` map to +1).
    """
    values = np.asarray(values)
    signs = np.less(values, 0).astype(float_dtype_of(values))
    signs *= -2
    signs += 1
    return signs


__all__ = ["FLOAT_DTYPE", "as_float", "float_dtype_of", "sign_bipolar"]
