"""Unit tests for repro.eval.sweep."""

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_gaussian_classes
from repro.eval.sweep import DimensionSweepResult, run_dimension_sweep


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


class TestPackedSplitsAndFitGrid:
    @pytest.fixture(scope="class")
    def splits(self, tiny_dataset):
        from repro.eval.sweep import PackedSplits
        from repro.hdc.encoders import RecordEncoder

        encoder = RecordEncoder(dimension=256, num_levels=8, seed=3)
        return PackedSplits.from_dataset(tiny_dataset, encoder)

    def test_from_dataset_packs_both_splits(self, tiny_dataset, splits):
        import numpy as np

        from repro.kernels.packed import pack_bipolar

        assert splits.train_set.num_samples == tiny_dataset.train_features.shape[0]
        assert len(splits.test_packed) == tiny_dataset.test_features.shape[0]
        np.testing.assert_array_equal(
            splits.test_packed.words, pack_bipolar(splits.test_encoded).words
        )

    def test_run_fit_grid_shares_one_packed_training_set(self, splits, monkeypatch):
        """Every grid cell must ride the splits' PackedTrainingSet, not build one."""
        from repro.eval.sweep import run_fit_grid
        from repro.kernels.train import PackedTrainingSet

        def fail_from_dense(*args, **kwargs):
            raise AssertionError("grid cell built its own PackedTrainingSet")

        monkeypatch.setattr(PackedTrainingSet, "from_dense", fail_from_dense)
        results = run_fit_grid(
            splits,
            {
                "a": lambda: BaselineHDC(seed=0),
                "b": lambda: BaselineHDC(seed=1),
                "c": lambda: RetrainingHDC(iterations=2, seed=2),
            },
        )
        assert set(results) == {"a", "b", "c"}
        for cell in results.values():
            assert 0.0 <= cell.test_accuracy <= 1.0
            assert cell.fit_seconds >= 0.0
            assert cell.classifier.class_hypervectors_ is not None

    def test_run_fit_grid_matches_standalone_fit(self, splits):
        import numpy as np

        from repro.eval.sweep import run_fit_grid

        grid = run_fit_grid(splits, {"cell": lambda: BaselineHDC(seed=4)})
        standalone = BaselineHDC(seed=4).fit(splits.train_encoded, splits.train_labels)
        np.testing.assert_array_equal(
            grid["cell"].classifier.class_hypervectors_,
            standalone.class_hypervectors_,
        )

    def test_empty_grid_rejected(self, splits):
        from repro.eval.sweep import run_fit_grid

        with pytest.raises(ValueError, match="non-empty"):
            run_fit_grid(splits, {})

    def test_grid_accepts_packed_training_ensemble(self, splits):
        """The ensemble trains on the shared packed set through the grid too."""
        from repro.classifiers.multimodel import MultiModelHDC
        from repro.eval.sweep import run_fit_grid

        results = run_fit_grid(
            splits,
            {"ens": lambda: MultiModelHDC(models_per_class=2, iterations=1, seed=0)},
        )
        assert results["ens"].classifier.model_hypervectors_ is not None
