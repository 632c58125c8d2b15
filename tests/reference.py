"""Reference implementations the fast paths are checked against, bit for bit.

* :func:`dense_record_accumulate` — Eq. 1 as the seed wrote it: one gather
  and multiply per feature, summed in int32.
* :func:`dense_ngram_accumulate` — the seed n-gram encoder: a Python loop
  over binding windows.
* :func:`reference_cross_entropy` and :func:`reference_bnn_backward` — the
  LeHDC training step before the trainer dropped its dead work: the softmax
  gradient with no subnormal flush, the input-gradient matmul through the
  binary weights, and ``Dropout.backward`` on the result.  Patch them over
  ``repro.core.bnn_model.cross_entropy_from_logits`` and
  ``SingleLayerBNN.backward`` to train with the pre-change step.
* :func:`reference_dropout_forward` / :func:`reference_dropout_backward` —
  ``Dropout`` before the 16-bit mask: one float64 uniform per entry and a
  float mask multiplied over a float split.  :func:`float64_keep_mask` is
  that draw alone, to patch over ``Dropout._draw_keep_mask`` so the int8
  path replays the pre-change stream.
* :func:`reference_sign_with_ties` — ``sign_with_ties`` before the one-pass
  int8 rewrite: an int64 ``np.where``, a cast, and ties patched through a
  boolean mask.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.hdc.hypervector import BIPOLAR_DTYPE
from repro.kernels.linear import as_float, matmul
from repro.nn.losses import one_hot, softmax
from repro.utils.rng import ensure_rng


def dense_record_accumulate(
    position_vectors: np.ndarray, level_vectors: np.ndarray, levels: np.ndarray
) -> np.ndarray:
    """Pre-sign Eq. 1 accumulation ``sum_i F_i * V_{q_i}`` for ``(B, N)`` levels."""
    positions = position_vectors.astype(np.int32)
    level_table = level_vectors.astype(np.int32)
    accumulated = np.zeros((levels.shape[0], positions.shape[1]), dtype=np.int32)
    for feature_index in range(levels.shape[1]):
        accumulated += positions[feature_index] * level_table[levels[:, feature_index]]
    return accumulated


def dense_ngram_accumulate(encoder, levels: np.ndarray) -> np.ndarray:
    """Pre-sign n-gram accumulation of a fitted ``NGramEncoder``, window by window."""
    level_vectors = encoder.level_memory.vectors.astype(np.int32)
    permuted = [np.roll(level_vectors, o, axis=1) for o in range(encoder.ngram)]
    accumulated = np.zeros((levels.shape[0], encoder.dimension), dtype=np.int32)
    for start in range(levels.shape[1] - encoder.ngram + 1):
        gram = permuted[0][levels[:, start]].copy()
        for offset in range(1, encoder.ngram):
            gram *= permuted[offset][levels[:, start + offset]]
        accumulated += gram
    return accumulated


def reference_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy and its logit gradient, subnormal entries kept."""
    logits = as_float(logits)
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    probabilities = softmax(logits, axis=1)
    clipped = np.clip(probabilities[np.arange(batch), labels], 1e-12, 1.0)
    loss = float(-np.log(clipped).mean())
    grad = (probabilities - one_hot(labels, num_classes, dtype=probabilities.dtype)) / batch
    return loss, grad


def reference_bnn_backward(model, grad_output: np.ndarray) -> np.ndarray:
    """``SingleLayerBNN.backward`` with the input gradient it used to compute."""
    linear = model.linear
    grad_output = as_float(grad_output)
    grad_weight = matmul(linear._cached_input.T, grad_output)
    if linear.latent_clip is not None:
        inside = np.abs(linear.weight.value) <= linear.latent_clip
        grad_weight = grad_weight * inside
    linear.weight.add_grad(grad_weight)
    grad_input = matmul(grad_output, linear._cached_binary.T)
    return model.dropout.backward(grad_input)


def reference_dropout_forward(self, inputs: np.ndarray) -> np.ndarray:
    """``Dropout.forward`` with a float64 uniform draw per entry."""
    inputs = as_float(inputs)
    if not self.training or self.rate == 0.0:
        self._cached_mask = None
        return inputs
    keep_probability = 1.0 - self.rate
    mask = self._rng.random(inputs.shape) < keep_probability
    self._cached_mask = mask.astype(inputs.dtype) / inputs.dtype.type(
        keep_probability
    )
    return inputs * self._cached_mask


def reference_dropout_backward(self, grad_output: np.ndarray) -> np.ndarray:
    """``Dropout.backward`` over the scaled float mask of :func:`reference_dropout_forward`."""
    grad_output = as_float(grad_output)
    if self._cached_mask is None:
        return grad_output
    return grad_output * self._cached_mask


def float64_keep_mask(self, shape) -> np.ndarray:
    """The pre-change keep mask alone, as a ``Dropout._draw_keep_mask``."""
    return self._rng.random(shape) < 1.0 - self.rate


def reference_sign_with_ties(
    values: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    tie_break: str = "random",
) -> np.ndarray:
    """``sign_with_ties`` through ``np.where`` and a boolean tie patch."""
    values = np.asarray(values)
    result = np.where(values > 0, 1, -1).astype(BIPOLAR_DTYPE)
    zeros = values == 0
    if np.any(zeros):
        if tie_break == "random":
            rng = ensure_rng(rng)
            random_signs = (
                2 * rng.integers(0, 2, size=int(zeros.sum()), dtype=np.int8) - 1
            )
            result[zeros] = random_signs
        else:
            result[zeros] = 1
    return result


def count_subnormals(array: np.ndarray) -> int:
    """Number of non-zero entries below the dtype's smallest normal magnitude."""
    magnitude = np.abs(array)
    return int(np.count_nonzero((magnitude > 0) & (magnitude < np.finfo(array.dtype).tiny)))


__all__ = [
    "count_subnormals",
    "dense_ngram_accumulate",
    "dense_record_accumulate",
    "float64_keep_mask",
    "reference_bnn_backward",
    "reference_cross_entropy",
    "reference_dropout_backward",
    "reference_dropout_forward",
    "reference_sign_with_ties",
]
