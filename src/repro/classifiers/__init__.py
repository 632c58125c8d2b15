"""HDC classifiers and training strategies compared in the paper.

All classifiers share the :class:`~repro.classifiers.base.HDCClassifierBase`
interface and operate on *already encoded* sample hypervectors, so a single
encoding pass can be shared across every strategy in an experiment (the
encoding is identical for all of them — the paper's point is that only the
training of the class hypervectors differs).  The
:class:`~repro.classifiers.pipeline.HDCPipeline` wrapper couples an encoder
with any classifier to give a raw-features ``fit``/``predict`` API.

Strategies:

* :class:`BaselineHDC` - centroid bundling (Eq. 2), the "Baseline Binary HDC"
  row of Table 1;
* :class:`RetrainingHDC` - QuantHD-style retraining (Eq. 3 / Fig. 2), the
  "Retraining" row;
* :class:`EnhancedRetrainingHDC` - the improved heuristic of the Sec. 3.3
  case study (Fig. 3);
* :class:`MultiModelHDC` - SearcHD-style multi-model ensemble, the
  "Multi-Model" row.

The learning-based strategies themselves (LeHDC and footnote 1's non-binary
LeHDC) live in :mod:`repro.core`.
"""

from repro.classifiers.base import HDCClassifierBase
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline

__all__ = [
    "HDCClassifierBase",
    "BaselineHDC",
    "RetrainingHDC",
    "EnhancedRetrainingHDC",
    "MultiModelHDC",
    "HDCPipeline",
]
