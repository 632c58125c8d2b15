"""Unit tests for repro.eval.experiment."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_gaussian_classes
from repro.eval.experiment import (
    ExperimentResult,
    StrategyResult,
    default_strategy_factories,
    run_strategy_comparison,
)


@pytest.fixture(scope="module")
def tiny_dataset():
    train_x, train_y, test_x, test_y = make_gaussian_classes(
        num_classes=3,
        num_features=16,
        train_size=120,
        test_size=60,
        class_sep=2.5,
        clusters_per_class=2,
        seed=0,
    )
    return Dataset(
        name="tiny",
        train_features=train_x,
        train_labels=train_y,
        test_features=test_x,
        test_labels=test_y,
    )


FAST_STRATEGIES = {
    "baseline": lambda rng: BaselineHDC(seed=rng),
    "lehdc": lambda rng: LeHDCClassifier(
        config=LeHDCConfig(epochs=8, batch_size=32, dropout_rate=0.1, weight_decay=0.01),
        seed=rng,
    ),
}


class TestRunStrategyComparison:
    def test_runs_and_aggregates(self, tiny_dataset):
        result = run_strategy_comparison(
            dataset=tiny_dataset,
            strategies=FAST_STRATEGIES,
            dimension=512,
            num_levels=8,
            repetitions=2,
            seed=0,
        )
        assert isinstance(result, ExperimentResult)
        assert set(result.strategies) == {"baseline", "lehdc"}
        for strategy in result.strategies.values():
            assert len(strategy.test_accuracies) == 2
            assert 0.0 <= strategy.test_summary.mean <= 1.0

    def test_summary_percent(self, tiny_dataset):
        result = run_strategy_comparison(
            dataset=tiny_dataset,
            strategies=FAST_STRATEGIES,
            dimension=256,
            num_levels=8,
            repetitions=1,
            seed=1,
        )
        summary = result.summary_percent()
        assert summary["baseline"].mean > 30.0  # percent, not fraction

    def test_increment_over(self, tiny_dataset):
        result = run_strategy_comparison(
            dataset=tiny_dataset,
            strategies=FAST_STRATEGIES,
            dimension=256,
            num_levels=8,
            repetitions=1,
            seed=2,
        )
        increment = result.increment_over("baseline", "lehdc")
        assert isinstance(increment, float)

    def test_requires_exactly_one_dataset_argument(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_strategy_comparison(strategies=FAST_STRATEGIES)
        with pytest.raises(ValueError):
            run_strategy_comparison(
                dataset=tiny_dataset, dataset_name="mnist", strategies=FAST_STRATEGIES
            )

    def test_dataset_by_name_uses_registry(self):
        result = run_strategy_comparison(
            dataset_name="pamap",
            strategies=FAST_STRATEGIES,
            dimension=256,
            num_levels=8,
            repetitions=1,
            profile="tiny",
            seed=3,
        )
        assert result.dataset_name == "pamap"

class TestDefaultStrategyFactories:
    def test_contains_table1_strategies(self):
        factories = default_strategy_factories("mnist")
        assert set(factories) == {"baseline", "multimodel", "retraining", "lehdc"}

    def test_epoch_override(self):
        factories = default_strategy_factories("mnist", lehdc_epochs=5)
        classifier = factories["lehdc"](np.random.default_rng(0))
        assert classifier.config.epochs == 5

    def test_uses_paper_config_for_dataset(self):
        factories = default_strategy_factories("cifar10")
        classifier = factories["lehdc"](np.random.default_rng(0))
        assert classifier.config.weight_decay == 0.03


class TestStrategyResult:
    def test_summaries(self):
        result = StrategyResult(name="x", test_accuracies=[0.5, 0.7], train_accuracies=[0.8, 0.9])
        assert result.test_summary.mean == pytest.approx(0.6)
        assert result.train_summary.mean == pytest.approx(0.85)
