"""repro — reproduction of "LeHDC: Learning-Based Hyperdimensional Computing
Classifier" (Duan et al., DAC 2022).

The package is organised as:

* :mod:`repro.hdc` — hypervector algebra, item memories and the record
  encoder of Eq. 1;
* :mod:`repro.nn` — the NumPy neural-network substrate (Adam, dropout, binary
  linear layer with straight-through estimator);
* :mod:`repro.classifiers` — baseline HDC and the heuristic training
  strategies the paper compares against (Table 1 and Fig. 3);
* :mod:`repro.core` — LeHDC itself: class hypervectors trained as the weights
  of an equivalent single-layer BNN, and its non-binary variant (footnote 1);
* :mod:`repro.datasets` — synthetic substitutes for the six paper benchmarks
  (plus loaders for the real files when present);
* :mod:`repro.eval` — multi-seed experiments, dimension sweeps, tables and
  text figures;
* :mod:`repro.hardware` — the inference cost model behind the paper's
  zero-overhead claim;
* :mod:`repro.serve` — the packed-inference serving stack: engine, model
  registry and a stdlib JSON/HTTP front-end.  It is imported on its own
  (``from repro.serve import PackedInferenceEngine``): ``import repro``
  leaves it, and the HTTP modules, unloaded.

Quickstart::

    from repro import RecordEncoder, LeHDCClassifier, HDCPipeline, get_dataset

    data = get_dataset("fashion_mnist", profile="small", seed=0)
    pipeline = HDCPipeline(RecordEncoder(dimension=4000, seed=0), LeHDCClassifier(seed=0))
    pipeline.fit(data.train_features, data.train_labels)
    print(pipeline.score(data.test_features, data.test_labels))
"""

from repro.classifiers import (
    BaselineHDC,
    EnhancedRetrainingHDC,
    HDCPipeline,
    MultiModelHDC,
    RetrainingHDC,
)
from repro.core import (
    DEFAULT_CONFIG,
    PAPER_CONFIGS,
    BNNTrainer,
    LeHDCClassifier,
    LeHDCConfig,
    NonBinaryLeHDCClassifier,
    SingleLayerBNN,
)
from repro.core.configs import get_paper_config, reproduction_config
from repro.datasets import Dataset, get_dataset, list_datasets
from repro.eval import run_dimension_sweep, run_strategy_comparison
from repro.hdc import RecordEncoder
from repro.io import load_model, read_model_metadata, save_model

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # encoder
    "RecordEncoder",
    # classifiers
    "BaselineHDC",
    "RetrainingHDC",
    "EnhancedRetrainingHDC",
    "MultiModelHDC",
    "HDCPipeline",
    # LeHDC core
    "LeHDCClassifier",
    "NonBinaryLeHDCClassifier",
    "LeHDCConfig",
    "PAPER_CONFIGS",
    "DEFAULT_CONFIG",
    "get_paper_config",
    "reproduction_config",
    "SingleLayerBNN",
    "BNNTrainer",
    # datasets
    "Dataset",
    "get_dataset",
    "list_datasets",
    # evaluation
    "run_strategy_comparison",
    "run_dimension_sweep",
    # persistence
    "save_model",
    "load_model",
    "read_model_metadata",
]
