"""Multi-seed strategy comparison: the machinery behind Table 1.

For each repetition (seed), the dataset is (re)generated, encoded **once**,
and every training strategy is fitted on the same encoded hypervectors —
mirroring the paper's setup where all strategies share the same encoder and
only the class-hypervector training differs.  :func:`fit_strategies` is that
one step, shared with the dimension sweep of :mod:`repro.eval.sweep`.
Accuracies are aggregated to ``mean±std`` across repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import reproduction_config
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.base import Dataset
from repro.datasets.registry import get_dataset
from repro.eval.metrics import MeanStd, aggregate_mean_std
from repro.hdc.encoders import RecordEncoder
from repro.kernels.packed import pack_bipolar
from repro.kernels.train import PackedTrainingSet
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int

#: A strategy factory takes a seed (or generator) and returns an unfitted classifier.
StrategyFactory = Callable[[SeedLike], object]


@dataclass
class StrategyResult:
    """Accuracies of one strategy across repetitions."""

    name: str
    test_accuracies: List[float] = field(default_factory=list)
    train_accuracies: List[float] = field(default_factory=list)

    @property
    def test_summary(self) -> MeanStd:
        """``mean±std`` of the test accuracy (as a fraction in [0, 1])."""
        return aggregate_mean_std(self.test_accuracies)

    @property
    def train_summary(self) -> MeanStd:
        """``mean±std`` of the training accuracy."""
        return aggregate_mean_std(self.train_accuracies)


@dataclass
class ExperimentResult:
    """All strategy results for one dataset plus the experiment parameters."""

    dataset_name: str
    dimension: int
    repetitions: int
    strategies: Dict[str, StrategyResult] = field(default_factory=dict)

    def summary_percent(self) -> Dict[str, MeanStd]:
        """Test-accuracy summaries in percent, keyed by strategy name."""
        return {
            name: result.test_summary.as_percent()
            for name, result in self.strategies.items()
        }

    def increment_over(self, baseline_name: str, strategy_name: str) -> float:
        """Mean test-accuracy increment (percent) of one strategy over another."""
        baseline = self.strategies[baseline_name].test_summary.mean
        strategy = self.strategies[strategy_name].test_summary.mean
        return (strategy - baseline) * 100.0


def default_strategy_factories(
    dataset_name: str, lehdc_epochs: int = 30, retraining_iterations: int = 30
) -> Dict[str, StrategyFactory]:
    """The four Table 1 strategies at the reproduction's budgets.

    LeHDC trains by :func:`~repro.core.configs.reproduction_config` for
    *lehdc_epochs* epochs, retraining runs *retraining_iterations* passes,
    and the multi-model ensemble keeps 8 models per class for 2 passes.  The
    paper uses 150 retraining iterations, 64 models per class and the Table 2
    epoch counts; these budgets converge on the scaled-down synthetic
    substitutes and keep the full Table 1 run in minutes on a CPU.
    """
    config = reproduction_config(dataset_name, lehdc_epochs)
    return {
        "baseline": lambda seed: BaselineHDC(seed=seed),
        "multimodel": lambda seed: MultiModelHDC(
            models_per_class=8, iterations=2, seed=seed
        ),
        "retraining": lambda seed: RetrainingHDC(iterations=retraining_iterations, seed=seed),
        "lehdc": lambda seed: LeHDCClassifier(config=config, seed=seed),
    }


def fit_strategies(
    data: Dataset,
    strategies: Dict[str, StrategyFactory],
    dimension: int,
    num_levels: int,
    seed: int,
) -> Dict[str, Tuple[float, float]]:
    """Encode *data* once and fit every strategy on it.

    The encoder is seeded with *seed*, and each strategy's factory is given a
    generator seeded with ``seed + _stable_offset(name)``.  One
    :class:`~repro.kernels.train.PackedTrainingSet` of the training split and
    one packed copy of the test split are shared by every strategy: the
    centroid, retraining and ensemble strategies train on the set, every
    strategy with packed scoring is scored on the packed splits, and the
    rest take the dense arrays; both paths give identical models and
    predictions.  Returns ``{name: (test accuracy, train accuracy)}``.
    """
    encoder = RecordEncoder(dimension=dimension, num_levels=num_levels, seed=seed)
    encoder.fit(data.train_features)
    train_encoded = encoder.encode(data.train_features)
    test_encoded = encoder.encode(data.test_features)
    train_set = PackedTrainingSet.from_dense(train_encoded)
    test_packed = pack_bipolar(test_encoded)

    def accuracy(classifier, encoded, packed, labels) -> float:
        if classifier.supports_packed_scoring():
            predictions = classifier.predict_packed(packed)
        else:
            predictions = classifier.predict(encoded)
        return float(np.mean(predictions == np.asarray(labels)))

    accuracies = {}
    for name, factory in strategies.items():
        classifier = factory(np.random.default_rng(seed + _stable_offset(name)))
        if classifier.supports_packed_training():
            classifier.fit(train_encoded, data.train_labels, packed_train=train_set)
        else:
            classifier.fit(train_encoded, data.train_labels)
        accuracies[name] = (
            accuracy(classifier, test_encoded, test_packed, data.test_labels),
            accuracy(classifier, train_encoded, train_set.packed, data.train_labels),
        )
    return accuracies


def run_strategy_comparison(
    dataset: Optional[Dataset] = None,
    dataset_name: Optional[str] = None,
    strategies: Optional[Dict[str, StrategyFactory]] = None,
    dimension: int = 4000,
    num_levels: int = 32,
    repetitions: int = 3,
    profile: str = "small",
    seed: SeedLike = 0,
) -> ExperimentResult:
    """Fit every strategy on *repetitions* seeds of a dataset and aggregate.

    Exactly one of *dataset* (a pre-built :class:`Dataset`, reused for every
    repetition) or *dataset_name* (regenerated per repetition with a fresh
    seed, matching how the paper reports mean±std) must be given.  Without
    *strategies*, the four of :func:`default_strategy_factories` run.

    Returns an :class:`ExperimentResult` whose ``summary_percent()`` rows are
    directly comparable to Table 1.
    """
    if (dataset is None) == (dataset_name is None):
        raise ValueError("provide exactly one of dataset or dataset_name")
    check_positive_int(repetitions, "repetitions")
    name = dataset.name if dataset is not None else dataset_name
    if strategies is None:
        strategies = default_strategy_factories(name)

    root_rng = ensure_rng(seed)
    result = ExperimentResult(
        dataset_name=name,
        dimension=dimension,
        repetitions=repetitions,
        strategies={key: StrategyResult(name=key) for key in strategies},
    )
    for repetition in range(repetitions):
        repetition_seed = int(root_rng.integers(0, 2**31 - 1))
        data = (
            dataset
            if dataset is not None
            else get_dataset(dataset_name, profile=profile, seed=repetition_seed)
        )
        accuracies = fit_strategies(data, strategies, dimension, num_levels, repetition_seed)
        for strategy_name, (test, train) in accuracies.items():
            result.strategies[strategy_name].test_accuracies.append(test)
            result.strategies[strategy_name].train_accuracies.append(train)

    return result


def _stable_offset(name: str) -> int:
    """Deterministic per-strategy seed offset (``hash()`` is randomised per process)."""
    return sum((index + 1) * ord(character) for index, character in enumerate(name)) % 10_000


__all__ = [
    "StrategyResult",
    "ExperimentResult",
    "StrategyFactory",
    "default_strategy_factories",
    "fit_strategies",
    "run_strategy_comparison",
]
