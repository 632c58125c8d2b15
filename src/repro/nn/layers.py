"""Layers: real-weight linear, binary linear with straight-through estimator, dropout.

:class:`BinaryLinear` is the heart of the LeHDC reproduction.  Following
Sec. 4 (and the BinaryConnect / Adam-for-BNN recipe the paper cites), it keeps
a *latent* real-valued weight matrix ``C_nb`` that accumulates small
gradients, while the forward pass uses its binarisation ``C = sgn(C_nb)``
(Eq. 8).  The backward pass uses the straight-through estimator: gradients
w.r.t. the binary weights are applied to the latent weights unchanged
(optionally masked where ``|C_nb|`` exceeds a clip threshold).  Its input is
the encoded data, so it returns no input gradient.

Dtype: all float compute goes through :mod:`repro.kernels.linear`.
Parameters are initialised in ``float32`` (the latent weights of a BNN need
nowhere near 53 bits of mantissa) and integer inputs are cast to it once —
during training by :class:`Dropout`, which writes the scaled, masked int8
batch straight into ``float32``; arrays that are already floating point are
never silently up-cast, so a training step stays ``float32`` end to end.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.kernels.linear import as_float, float_dtype_of, sign_bipolar
from repro.nn.init import scaled_uniform_init
from repro.nn.module import Module, Parameter
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


class Linear(Module):
    """Real-weight dense layer ``y = x W`` over encoded data.

    The network of non-binary HDC (the paper's footnote 1): its weight
    columns are the real-valued class hypervectors.  Like
    :class:`BinaryLinear`, it takes the encoded hypervector as input, so it
    has no bias and its backward pass returns no input gradient.
    """

    def __init__(self, in_features: int, out_features: int, seed: SeedLike = None):
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        self.weight = Parameter(
            scaled_uniform_init((self.in_features, self.out_features), seed=seed),
            name="linear.weight",
        )
        self._cached_input: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = as_float(inputs)
        self._cached_input = inputs
        return inputs @ self.weight.value

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate the weight gradient ``x^T g``; returns no input gradient."""
        if self._cached_input is None:
            raise RuntimeError("forward() must be called before backward()")
        self.weight.add_grad(self._cached_input.T @ as_float(grad_output))


class BinaryLinear(Module):
    """Binary-weight dense layer with latent weights and an STE backward pass.

    Parameters
    ----------
    in_features, out_features:
        Layer shape; for LeHDC these are ``D`` and the number of classes ``K``.
    latent_clip:
        If not ``None``, latent weights are clipped to ``[-latent_clip,
        +latent_clip]`` after every optimiser step (classic BinaryConnect
        behaviour) and gradients are masked outside the clip range.  ``None``
        disables clipping (the paper's formulation relies on weight decay to
        bound the latent weights instead); both modes are exposed so the
        ablation benchmark can compare them.
    seed:
        Seed or generator for the uniform latent-weight initialisation
        (:func:`~repro.nn.init.scaled_uniform_init`).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        latent_clip: Optional[float] = 1.0,
        seed: SeedLike = None,
    ):
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        if latent_clip is not None and latent_clip <= 0:
            raise ValueError(f"latent_clip must be positive or None, got {latent_clip}")
        self.latent_clip = latent_clip
        self.weight = Parameter(
            scaled_uniform_init((self.in_features, self.out_features), seed=seed),
            name="binary_linear.latent_weight",
        )
        self._cached_input: Optional[np.ndarray] = None
        self._cached_binary: Optional[np.ndarray] = None

    # ---------------------------------------------------------------- core
    @property
    def binary_weight(self) -> np.ndarray:
        """The binarised weights ``sgn(C_nb)`` (Eq. 8); zeros map to +1."""
        return sign_bipolar(self.weight.value)

    def set_latent_from_bipolar(self, bipolar: np.ndarray, magnitude: float = 0.01) -> None:
        """Load an existing bipolar matrix (e.g. trained class hypervectors).

        The matrix must have shape ``(in_features, out_features)``; its signs
        become the binary weights, so the layer reproduces that classifier
        (Sec. 3.1).  The latent dtype is preserved.
        """
        bipolar = np.asarray(bipolar)
        if bipolar.shape != self.weight.value.shape:
            raise ValueError(
                f"bipolar shape {bipolar.shape} does not match weight shape "
                f"{self.weight.value.shape}"
            )
        if not np.all(np.isin(bipolar, (-1.0, 1.0))):
            raise ValueError("expected entries in {+1, -1}")
        dtype = self.weight.value.dtype
        self.weight.value = bipolar.astype(dtype) * dtype.type(magnitude)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = as_float(inputs)
        self._cached_input = inputs
        self._cached_binary = self.binary_weight
        return inputs @ self._cached_binary

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate the latent-weight gradient; returns no input gradient.

        The layer's one caller, :class:`~repro.core.bnn_model.SingleLayerBNN`,
        feeds it the (dropped-out) encoded hypervector, which is data and
        needs no gradient — autograd frameworks skip that product the same
        way for inputs that do not require grad.  Skipping
        ``grad_output @ C^T`` saves one of the three matmuls of every
        training step and the ``(B, D)`` dropout multiply behind it.
        """
        if self._cached_input is None:
            raise RuntimeError("forward() must be called before backward()")
        grad_output = as_float(grad_output)
        grad_weight = self._cached_input.T @ grad_output
        if self.latent_clip is not None:
            # Straight-through estimator with saturation: once a latent weight
            # has left the clip range, further pushes in the same direction
            # are ignored, which stabilises training.
            inside = np.abs(self.weight.value) <= self.latent_clip
            grad_weight = grad_weight * inside
        self.weight.add_grad(grad_weight)

    def clip_latent(self) -> None:
        """Clip latent weights into ``[-latent_clip, +latent_clip]`` (no-op if disabled)."""
        if self.latent_clip is not None:
            np.clip(
                self.weight.value,
                -self.latent_clip,
                self.latent_clip,
                out=self.weight.value,
            )


class Dropout(Module):
    """Inverted dropout on the layer input.

    The paper applies dropout to the (very wide) encoded hypervector during
    training to stop the class hypervectors from over-fitting (Sec. 4).  At
    evaluation time this layer is the identity.

    The keep mask is drawn as 16-bit thresholds: one full-range uint64 per
    four entries, read as little-endian uint16 lanes, keeps an entry when its
    lane is below ``round((1 - rate) * 65536)``.  The realised rate is that
    count over 65536, within ``2**-17`` of ``rate``; a rate whose keep count
    rounds to zero is rejected.  The batch is masked in its own dtype (an
    int8 hypervector stays int8) and scaled once by ``1 / (1 - rate)`` into
    its float dtype (:func:`~repro.kernels.linear.float_dtype_of`: ``float32``
    for integers), so the training split never needs a float copy.
    """

    def __init__(self, rate: float, seed: SeedLike = None):
        super().__init__()
        self.rate = check_probability(rate, "rate", inclusive_one=False)
        self.keep_count = round((1.0 - self.rate) * 65536)
        if self.keep_count == 0:
            raise ValueError(f"rate {rate} keeps no entry at 16-bit resolution")
        self._rng = ensure_rng(seed)
        self._cached_mask: Optional[np.ndarray] = None

    def _draw_keep_mask(self, shape) -> np.ndarray:
        """Boolean keep mask of *shape*: ``ceil(size / 4)`` uint64 draws."""
        size = math.prod(shape)
        words = self._rng.integers(0, 2**64, size=-(-size // 4), dtype=np.uint64)
        lanes = words.astype("<u8", copy=False).view("<u2")[:size]
        return (lanes < self.keep_count).reshape(shape)

    def _apply_mask(self, values: np.ndarray) -> np.ndarray:
        dtype = float_dtype_of(values)
        scale = dtype.type(1) / dtype.type(1.0 - self.rate)
        return np.multiply(values * self._cached_mask, scale, dtype=dtype)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs)
        if not self.training or self.rate == 0.0:
            self._cached_mask = None
            return as_float(inputs)
        self._cached_mask = self._draw_keep_mask(inputs.shape)
        return self._apply_mask(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_output = as_float(grad_output)
        if self._cached_mask is None:
            return grad_output
        return self._apply_mask(grad_output)


__all__ = ["Linear", "BinaryLinear", "Dropout"]
