"""NumPy neural-network substrate, cut to the recipe LeHDC runs.

The paper trains its single-layer BNN with PyTorch; this package provides the
same machinery from scratch so the reproduction has no deep-learning
dependency: the layers of the wide single-layer network (:class:`BinaryLinear`
with latent weights and a straight-through estimator, the real-weight
:class:`Linear` of non-binary HDC, :class:`Dropout`), the softmax
cross-entropy loss, :class:`Adam`, the reduce-on-loss-increase learning-rate
schedule, and the uniform weight initialiser (Sec. 4, Eq. 8-10).
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import BinaryLinear, Dropout, Linear
from repro.nn.losses import cross_entropy_from_logits, one_hot, softmax
from repro.nn.optim import Adam, Optimizer
from repro.nn.schedules import ConstantSchedule, ReduceOnLossIncrease
from repro.nn.init import scaled_uniform_init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "BinaryLinear",
    "Dropout",
    "softmax",
    "one_hot",
    "cross_entropy_from_logits",
    "Optimizer",
    "Adam",
    "ConstantSchedule",
    "ReduceOnLossIncrease",
    "scaled_uniform_init",
]
