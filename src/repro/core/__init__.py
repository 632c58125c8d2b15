"""LeHDC — the paper's primary contribution.

LeHDC trains the class hypervectors of a binary HDC classifier by viewing the
classifier as a wide single-layer binary neural network (Fig. 4) and
optimising that BNN with softmax cross-entropy, weight decay, dropout, and
Adam (Eq. 8-10).  After training, the binarised weights *are* the class
hypervectors; inference is the standard HDC nearest-Hamming rule with zero
additional cost.  Footnote 1's non-binary variant trains the same network
with real weights through the same loop.

Public entry points:

* :class:`LeHDCClassifier` - drop-in HDC classifier trained the LeHDC way
  (operates on encoded hypervectors, like every classifier in
  :mod:`repro.classifiers`);
* :class:`NonBinaryLeHDCClassifier` - the same classifier over a real-weight
  network, scored by cosine similarity;
* :class:`LeHDCConfig` / :data:`PAPER_CONFIGS` - the Table 2 hyper-parameter
  sets;
* :class:`BNNTrainer` / :class:`TrainingHistory` - the one training loop, for
  both networks (:class:`SingleLayerBNN`, :class:`SingleLayerNetwork`),
  exposed for ablation studies and the trajectory figures.
"""

from repro.core.configs import DEFAULT_CONFIG, PAPER_CONFIGS, LeHDCConfig
from repro.core.bnn_model import (
    BNNTrainer,
    SingleLayerBNN,
    SingleLayerNetwork,
    TrainingHistory,
)
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier

__all__ = [
    "LeHDCConfig",
    "PAPER_CONFIGS",
    "DEFAULT_CONFIG",
    "SingleLayerNetwork",
    "SingleLayerBNN",
    "BNNTrainer",
    "TrainingHistory",
    "LeHDCClassifier",
    "NonBinaryLeHDCClassifier",
]
