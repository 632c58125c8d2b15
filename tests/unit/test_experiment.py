"""Unit tests for repro.eval.experiment."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import PAPER_CONFIGS, LeHDCConfig, reproduction_config
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_gaussian_classes
from repro.eval.experiment import (
    ExperimentResult,
    StrategyResult,
    _stable_offset,
    default_strategy_factories,
    fit_strategies,
    run_strategy_comparison,
)
from repro.hdc.encoders import RecordEncoder
from repro.kernels.train import PackedTrainingSet


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

class TestFitStrategies:
    """The one step every experiment loop runs: encode once, fit every strategy."""

    @staticmethod
    def _recording(factory, fitted, name):
        """*factory*, keeping each classifier it builds under *name*."""

        def build(rng):
            fitted[name] = factory(rng)
            return fitted[name]

        return build

    def test_one_packed_training_set_per_repetition(self, tiny_dataset, monkeypatch):
        built = []
        from_dense = PackedTrainingSet.from_dense
        monkeypatch.setattr(
            PackedTrainingSet,
            "from_dense",
            lambda encoded: built.append(encoded.shape) or from_dense(encoded),
        )
        strategies = {
            "baseline": FAST_STRATEGIES["baseline"],
            "retraining": lambda rng: RetrainingHDC(iterations=2, seed=rng),
            "multimodel": lambda rng: MultiModelHDC(models_per_class=2, iterations=1, seed=rng),
        }
        run_strategy_comparison(
            dataset=tiny_dataset,
            strategies=strategies,
            dimension=256,
            num_levels=8,
            repetitions=2,
            seed=3,
        )
        assert built == [(tiny_dataset.train_features.shape[0], 256)] * 2

    def test_a_strategy_fits_as_it_would_alone_at_its_seed(self, tiny_dataset):
        fitted = {}
        strategies = {
            name: self._recording(factory, fitted, name)
            for name, factory in {
                "baseline": FAST_STRATEGIES["baseline"],
                "retraining": lambda rng: RetrainingHDC(iterations=3, seed=rng),
                "lehdc": FAST_STRATEGIES["lehdc"],
            }.items()
        }
        accuracies = fit_strategies(tiny_dataset, strategies, dimension=256, num_levels=8, seed=11)
        assert list(accuracies) == ["baseline", "retraining", "lehdc"]

        encoder = RecordEncoder(dimension=256, num_levels=8, seed=11)
        encoder.fit(tiny_dataset.train_features)
        train_encoded = encoder.encode(tiny_dataset.train_features)
        test_encoded = encoder.encode(tiny_dataset.test_features)
        for name, factory in strategies.items():
            shared = fitted[name]
            standalone = factory(np.random.default_rng(11 + _stable_offset(name)))
            standalone.fit(train_encoded, tiny_dataset.train_labels)
            np.testing.assert_array_equal(
                shared.class_hypervectors_, standalone.class_hypervectors_
            )
            assert accuracies[name] == (
                standalone.score(test_encoded, tiny_dataset.test_labels),
                standalone.score(train_encoded, tiny_dataset.train_labels),
            )

    def test_the_ensemble_trains_on_the_shared_set(self, tiny_dataset, monkeypatch):
        shared = []
        from_dense = PackedTrainingSet.from_dense
        monkeypatch.setattr(
            PackedTrainingSet,
            "from_dense",
            lambda encoded: shared.append(from_dense(encoded)) or shared[-1],
        )
        seen = []

        class Recording(MultiModelHDC):
            def fit(self, hypervectors, labels, packed_train=None):
                seen.append(packed_train)
                return super().fit(hypervectors, labels, packed_train=packed_train)

        fitted = {}
        strategies = {
            "ensemble": self._recording(
                lambda rng: Recording(models_per_class=2, iterations=1, seed=rng),
                fitted,
                "ensemble",
            ),
            "baseline": FAST_STRATEGIES["baseline"],
        }
        fit_strategies(tiny_dataset, strategies, dimension=256, num_levels=8, seed=2)
        (train_set,) = shared
        assert seen == [train_set]
        assert fitted["ensemble"].model_hypervectors_ is not None


class TestDefaultStrategyFactories:
    def test_contains_table1_strategies(self):
        factories = default_strategy_factories("mnist")
        assert set(factories) == {"baseline", "multimodel", "retraining", "lehdc"}

    @pytest.mark.parametrize("dataset", sorted(PAPER_CONFIGS))
    def test_lehdc_trains_by_the_reproduction_recipe(self, dataset):
        classifier = default_strategy_factories(dataset, lehdc_epochs=7)["lehdc"](0)
        paper = PAPER_CONFIGS[dataset]
        assert classifier.config == reproduction_config(dataset, 7)
        assert (classifier.config.batch_size, classifier.config.learning_rate) == (64, 0.01)
        assert classifier.config.weight_decay == paper.weight_decay
        assert classifier.config.dropout_rate == paper.dropout_rate
        assert classifier.config.epochs == 7

    def test_multimodel_keeps_8_models_per_class_for_2_passes(self):
        classifier = default_strategy_factories("ucihar")["multimodel"](0)
        assert (classifier.models_per_class, classifier.iterations) == (8, 2)

    def test_retraining_runs_the_given_iterations(self):
        assert default_strategy_factories("ucihar")["retraining"](0).iterations == 30
        factories = default_strategy_factories("ucihar", retraining_iterations=4)
        assert factories["retraining"](0).iterations == 4

    def test_default_budget_is_30_epochs(self):
        classifier = default_strategy_factories("isolet")["lehdc"](0)
        assert classifier.config == reproduction_config("isolet", 30)

    def test_each_factory_seeds_its_classifier_with_what_it_is_given(self):
        for factory in default_strategy_factories("pamap").values():
            assert factory(3)._seed == 3

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
