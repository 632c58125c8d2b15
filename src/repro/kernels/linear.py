"""Float matmul/sign kernels and dtype-policy casts backing the NN substrate.

The seed code forced ``np.asarray(..., dtype=np.float64)`` on every
forward/backward call, up-casting the entire training hot path (the encoded
hypervectors are int8; the latent weights need nowhere near 53 bits of
mantissa).  These kernels replace that policy:

* :func:`as_float` casts *integer* inputs to the configured float dtype
  (:func:`repro.kernels.dispatch.float_dtype`, default ``float32``) and
  leaves arrays that are already floating point untouched — no silent up- or
  down-casts anywhere on the training path; :func:`float_dtype_of` names
  that dtype without casting;
* :func:`matmul` is the dispatchable dense product behind
  :class:`repro.nn.layers.Linear` / :class:`~repro.nn.layers.BinaryLinear`
  and the nearest-centroid scorer;
* :func:`sign_bipolar` binarises latent weights (Eq. 8, zeros map to +1)
  in the dtype of its input.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.kernels.dispatch import float_dtype, get_kernel, register_kernel, run_sharded


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
    latent weights' dtype unless *dtype* overrides it.
    """
    values = np.asarray(values)
    target = values.dtype if dtype is None else np.dtype(dtype)
    if not np.issubdtype(target, np.floating):
        target = float_dtype()
    return np.where(values < 0, target.type(-1), target.type(1))


@register_kernel("linear.matmul")
def _matmul_numpy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b


@register_kernel("linear.matmul", backend="threaded")
def _matmul_threaded(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Shard the rows of *a* across the shared pool (BLAS releases the GIL)."""
    if a.ndim != 2:
        return a @ b
    return run_sharded(lambda start, stop: a[start:stop] @ b, a.shape[0])


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dispatchable dense product ``a @ b``."""
    return get_kernel("linear.matmul")(a, b)


__all__ = ["as_float", "float_dtype_of", "matmul", "sign_bipolar", "zeros"]
