"""End-to-end integration tests: raw features -> encoder -> classifiers -> accuracy."""

import numpy as np
import pytest

from repro import (
    BaselineHDC,
    HDCPipeline,
    LeHDCClassifier,
    LeHDCConfig,
    RecordEncoder,
    RetrainingHDC,
    get_dataset,
)


class TestPipelineOnRegistryDatasets:
    @pytest.mark.parametrize("name", ["pamap", "ucihar"])
    def test_baseline_pipeline_learns_registry_dataset(self, name):
        data = get_dataset(name, profile="tiny", seed=0, prefer_real=False)
        pipeline = HDCPipeline(
            RecordEncoder(dimension=1024, num_levels=16, seed=0), BaselineHDC(seed=0)
        )
        pipeline.fit(data.train_features, data.train_labels)
        accuracy = pipeline.score(data.test_features, data.test_labels)
        assert accuracy > 2.0 / data.num_classes  # comfortably above chance

    def test_lehdc_pipeline_on_registry_dataset(self):
        data = get_dataset("pamap", profile="tiny", seed=1, prefer_real=False)
        config = LeHDCConfig(epochs=15, batch_size=32, dropout_rate=0.3, weight_decay=0.03)
        pipeline = HDCPipeline(
            RecordEncoder(dimension=1024, num_levels=16, seed=1),
            LeHDCClassifier(config=config, seed=1),
        )
        pipeline.fit(data.train_features, data.train_labels)
        accuracy = pipeline.score(data.test_features, data.test_labels)
        # The tiny profile has very few samples per class (12 classes, 6
        # clusters each), so require a clear margin over chance rather than
        # the benchmark-scale accuracy.
        assert accuracy > 0.5


class TestEncodingSharedAcrossStrategies:
    def test_all_strategies_consume_the_same_encoding(self, multimodal_problem):
        encoder = RecordEncoder(dimension=2048, num_levels=16, seed=3)
        encoder.fit(multimodal_problem["train_features"])
        train_encoded = encoder.encode(multimodal_problem["train_features"])
        test_encoded = encoder.encode(multimodal_problem["test_features"])
        labels = multimodal_problem["train_labels"]

        strategies = {
            "baseline": BaselineHDC(seed=4),
            "retraining": RetrainingHDC(iterations=10, seed=4),
            "lehdc": LeHDCClassifier(
                config=LeHDCConfig(epochs=20, batch_size=32, dropout_rate=0.2, weight_decay=0.02),
                seed=4,
            ),
        }
        accuracies = {}
        for name, model in strategies.items():
            model.fit(train_encoded, labels)
            accuracies[name] = model.score(
                test_encoded, multimodal_problem["test_labels"]
            )
            # Every strategy must produce binary class hypervectors of the
            # same shape: the inference datapath is interchangeable.
            assert model.class_hypervectors_.shape == (3, 2048)
            assert set(np.unique(model.class_hypervectors_)) <= {-1, 1}
        assert all(accuracy > 0.4 for accuracy in accuracies.values())


class TestModelReuse:
    def test_class_hypervectors_transplant_between_models(self, multimodal_problem):
        # Because inference is identical, class hypervectors trained by LeHDC
        # can be dropped into a BaselineHDC container and give identical
        # predictions — this is how a deployed HDC accelerator would consume
        # LeHDC's output (the paper's zero-overhead claim).
        encoder = RecordEncoder(dimension=1024, num_levels=16, seed=5)
        encoder.fit(multimodal_problem["train_features"])
        train_encoded = encoder.encode(multimodal_problem["train_features"])
        test_encoded = encoder.encode(multimodal_problem["test_features"])

        lehdc = LeHDCClassifier(
            config=LeHDCConfig(epochs=10, batch_size=32, dropout_rate=0.1, weight_decay=0.01),
            seed=5,
        )
        lehdc.fit(train_encoded, multimodal_problem["train_labels"])

        carrier = BaselineHDC(seed=5)
        carrier.fit(train_encoded, multimodal_problem["train_labels"])
        carrier.class_hypervectors_ = lehdc.class_hypervectors_.copy()

        np.testing.assert_array_equal(
            carrier.predict(test_encoded), lehdc.predict(test_encoded)
        )
