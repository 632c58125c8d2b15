"""Unit tests for repro.eval.sweep."""

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_gaussian_classes
from repro.eval.sweep import DimensionSweepResult, run_dimension_sweep
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


STRATEGIES = {
    "baseline": lambda rng: BaselineHDC(seed=rng),
    "lehdc": lambda rng: LeHDCClassifier(
        config=LeHDCConfig(epochs=6, batch_size=32, dropout_rate=0.1, weight_decay=0.01),
        seed=rng,
    ),
}


class TestRunDimensionSweep:
    def test_sweep_structure(self, tiny_dataset):
        result = run_dimension_sweep(
            dataset=tiny_dataset,
            dimensions=[128, 512],
            strategies=STRATEGIES,
            num_levels=8,
            repetitions=1,
            seed=0,
        )
        assert isinstance(result, DimensionSweepResult)
        assert result.dimensions == [128, 512]
        assert set(result.accuracies) == {"baseline", "lehdc"}
        series = result.series("baseline")
        assert len(series) == 2

    def test_summary_contains_mean_std(self, tiny_dataset):
        result = run_dimension_sweep(
            dataset=tiny_dataset,
            dimensions=[256],
            strategies=STRATEGIES,
            num_levels=8,
            repetitions=2,
            seed=1,
        )
        summary = result.summary("lehdc")[256]
        assert summary.count == 2

    def test_crossover_dimension(self, tiny_dataset):
        result = run_dimension_sweep(
            dataset=tiny_dataset,
            dimensions=[128, 1024],
            strategies=STRATEGIES,
            num_levels=8,
            repetitions=1,
            seed=2,
        )
        crossover = result.crossover_dimension("lehdc", "baseline", 1024)
        assert crossover in (128, 1024, None)

    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            run_dimension_sweep(dimensions=[128])
        with pytest.raises(ValueError):
            run_dimension_sweep(dataset=tiny_dataset, dimensions=[])
        with pytest.raises(ValueError):
            run_dimension_sweep(
                dataset=tiny_dataset, dataset_name="mnist", dimensions=[128]
            )

    def test_one_packed_training_set_per_repetition_and_dimension(
        self, tiny_dataset, monkeypatch
    ):
        built = []
        from_dense = PackedTrainingSet.from_dense
        monkeypatch.setattr(
            PackedTrainingSet,
            "from_dense",
            lambda encoded: built.append(encoded.shape) or from_dense(encoded),
        )
        strategies = {
            "baseline": STRATEGIES["baseline"],
            "retraining": lambda rng: RetrainingHDC(iterations=2, seed=rng),
            "more retraining": lambda rng: RetrainingHDC(iterations=3, seed=rng),
        }
        run_dimension_sweep(
            dataset=tiny_dataset,
            dimensions=[128, 256],
            strategies=strategies,
            num_levels=8,
            repetitions=2,
            seed=4,
        )
        train_rows = tiny_dataset.train_features.shape[0]
        assert built == [(train_rows, 128), (train_rows, 256)] * 2

    def test_dimensions_sorted(self, tiny_dataset):
        result = run_dimension_sweep(
            dataset=tiny_dataset,
            dimensions=[512, 128],
            strategies={"baseline": STRATEGIES["baseline"]},
            num_levels=8,
            repetitions=1,
            seed=3,
        )
        assert result.dimensions == [128, 512]
