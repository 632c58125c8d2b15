"""Softmax, one-hot encoding, and the cross-entropy training loss (Eq. 9-10).

The loss used by LeHDC is softmax cross-entropy over the BNN outputs
``o = En(x) C`` with one-hot targets; the L2 weight-decay term of Eq. 10 is
handled by the optimiser (decoupled, or coupled by adding ``lambda * C_nb`` to
the gradient), so it does not appear here.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.linear import as_float, float_dtype


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along *axis* (dtype-preserving for floats)."""
    logits = as_float(logits)
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exponentials = np.exp(shifted)
    return exponentials / exponentials.sum(axis=axis, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int, dtype=None) -> np.ndarray:
    """One-hot encode integer *labels* into an ``(n, num_classes)`` float matrix.

    *dtype* defaults to the kernel layer's float policy dtype.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ValueError(f"labels must be in [0, {num_classes})")
    if dtype is None:
        dtype = float_dtype()
    encoded = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def cross_entropy_from_logits(
    logits: np.ndarray, labels: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits.

    Parameters
    ----------
    logits:
        ``(batch, classes)`` raw scores.
    labels:
        ``(batch,)`` integer class labels.

    Returns
    -------
    loss:
        Scalar mean cross-entropy.
    grad:
        ``(batch, classes)`` gradient of the mean loss w.r.t. the logits,
        i.e. ``(softmax(logits) - onehot(labels)) / batch``, with entries
        below the dtype's smallest normal magnitude flushed to zero.
    """
    logits = as_float(logits)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] != logits.shape[0]:
        raise ValueError(
            f"labels length {labels.shape[0]} does not match batch {logits.shape[0]}"
        )
    batch, num_classes = logits.shape
    probabilities = softmax(logits, axis=1)
    # Clip to avoid log(0) on confidently wrong predictions.
    clipped = np.clip(probabilities[np.arange(batch), labels], 1e-12, 1.0)
    loss = float(-np.log(clipped).mean())
    # The one-hot targets follow the logits' dtype so the returned gradient
    # does not up-cast the backward pass.
    grad = (probabilities - one_hot(labels, num_classes, dtype=probabilities.dtype)) / batch
    # Flush subnormal entries to zero.  Saturated float32 logits (a class
    # spread of 100 or more, as D=4000 LeHDC logits reach) give probabilities
    # below the smallest normal float, and every BLAS call that reads a
    # subnormal operand takes a slow microcode path: the weight-gradient
    # product X^T @ grad of a Table 2 fashion_mnist step (B=256, D=4000)
    # measured ~10x slower with them: 4.1 ms against 0.40 ms flushed on a
    # 2-vCPU Xeon with OpenBLAS.  Entries that small vanish in every sum they
    # join, so trained weights stay bit-identical; five seeded Table 2 fits
    # in tests/integration/test_lehdc_step_parity.py check that.
    grad[np.abs(grad) < np.finfo(grad.dtype).tiny] = 0
    return loss, grad


__all__ = ["softmax", "one_hot", "cross_entropy_from_logits"]
