"""The dimension sweep of Fig. 6.

Fig. 6 plots inference accuracy against the hypervector dimension
``D ∈ {10 000, 8 000, 6 000, 4 000, 2 000}`` for every training strategy on
Fashion-MNIST and ISOLET.  :func:`run_dimension_sweep` regenerates that
series for any dataset: one encoding per (dimension, repetition), shared
across strategies through :func:`repro.eval.experiment.fit_strategies`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.datasets.base import Dataset
from repro.datasets.registry import get_dataset
from repro.eval.experiment import StrategyFactory, default_strategy_factories, fit_strategies
from repro.eval.metrics import MeanStd, aggregate_mean_std
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int


@dataclass
class DimensionSweepResult:
    """Accuracy of each strategy at each swept dimension."""

    dataset_name: str
    dimensions: List[int]
    #: accuracies[strategy][dimension] -> list of per-repetition accuracies
    accuracies: Dict[str, Dict[int, List[float]]] = field(default_factory=dict)

    def summary(self, strategy: str) -> Dict[int, MeanStd]:
        """``mean±std`` accuracy of *strategy* at every dimension."""
        return {
            dimension: aggregate_mean_std(values)
            for dimension, values in self.accuracies[strategy].items()
        }

    def series(self, strategy: str) -> List[float]:
        """Mean accuracy of *strategy* ordered like :attr:`dimensions` (for plotting)."""
        return [self.summary(strategy)[dimension].mean for dimension in self.dimensions]

    def crossover_dimension(
        self, strategy: str, reference_strategy: str, reference_dimension: int
    ) -> Optional[int]:
        """Smallest dimension at which *strategy* matches *reference_strategy*.

        Implements the paper's headline scalability observation: LeHDC at
        D=2 000 reaches the accuracy of retraining at D=10 000.  Returns
        ``None`` when no swept dimension reaches the reference accuracy.
        """
        reference = self.summary(reference_strategy)[reference_dimension].mean
        matching = [
            dimension
            for dimension in self.dimensions
            if self.summary(strategy)[dimension].mean >= reference
        ]
        return min(matching) if matching else None


def run_dimension_sweep(
    dataset: Optional[Dataset] = None,
    dataset_name: Optional[str] = None,
    dimensions: Sequence[int] = (2000, 4000, 6000, 8000, 10000),
    strategies: Optional[Dict[str, StrategyFactory]] = None,
    num_levels: int = 32,
    repetitions: int = 1,
    profile: str = "small",
    seed: SeedLike = 0,
) -> DimensionSweepResult:
    """Measure accuracy of every strategy across hypervector dimensions.

    Exactly one of *dataset* / *dataset_name* must be given, as in
    :func:`repro.eval.experiment.run_strategy_comparison`; without
    *strategies*, the four of
    :func:`~repro.eval.experiment.default_strategy_factories` run.
    """
    if (dataset is None) == (dataset_name is None):
        raise ValueError("provide exactly one of dataset or dataset_name")
    if not dimensions:
        raise ValueError("dimensions must be a non-empty sequence")
    check_positive_int(repetitions, "repetitions")
    name = dataset.name if dataset is not None else dataset_name
    if strategies is None:
        strategies = default_strategy_factories(name)

    root_rng = ensure_rng(seed)
    result = DimensionSweepResult(
        dataset_name=name, dimensions=sorted(int(d) for d in dimensions)
    )
    for strategy_name in strategies:
        result.accuracies[strategy_name] = {d: [] for d in result.dimensions}

    for repetition in range(repetitions):
        repetition_seed = int(root_rng.integers(0, 2**31 - 1))
        data = (
            dataset
            if dataset is not None
            else get_dataset(dataset_name, profile=profile, seed=repetition_seed)
        )
        for dimension in result.dimensions:
            accuracies = fit_strategies(data, strategies, dimension, num_levels, repetition_seed)
            for strategy_name, (test, _) in accuracies.items():
                result.accuracies[strategy_name][dimension].append(test)
    return result


__all__ = ["DimensionSweepResult", "run_dimension_sweep"]
