"""Unit tests for repro.core.lehdc."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier


@pytest.fixture(scope="module")
def fast_config():
    return LeHDCConfig(
        epochs=15, batch_size=32, dropout_rate=0.2, weight_decay=0.01, learning_rate=0.01
    )


class TestLeHDCClassifier:
    def test_fit_produces_binary_class_hypervectors(self, encoded_problem, fast_config):
        model = LeHDCClassifier(config=fast_config, seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert model.class_hypervectors_.shape == (
            encoded_problem["num_classes"],
            encoded_problem["dimension"],
        )
        assert set(np.unique(model.class_hypervectors_)) <= {-1, 1}

    def test_latent_hypervectors_binarise_to_class_hypervectors(
        self, encoded_problem, fast_config
    ):
        model = LeHDCClassifier(config=fast_config, seed=1)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        rebinarised = np.where(model.latent_class_hypervectors_ < 0, -1, 1)
        np.testing.assert_array_equal(rebinarised, model.class_hypervectors_)

    def test_beats_baseline_on_test_set(self, encoded_problem, fast_config):
        baseline = BaselineHDC(seed=2).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        lehdc = LeHDCClassifier(config=fast_config, seed=2).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        baseline_accuracy = baseline.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        lehdc_accuracy = lehdc.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert lehdc_accuracy >= baseline_accuracy - 0.02

    def test_history_recorded(self, encoded_problem, fast_config):
        model = LeHDCClassifier(config=fast_config, seed=3)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert model.history_.epochs == fast_config.epochs

    def test_epochs_override(self, encoded_problem, fast_config):
        model = LeHDCClassifier(config=fast_config, seed=4)
        model.fit(
            encoded_problem["train_hypervectors"],
            encoded_problem["train_labels"],
            epochs=3,
        )
        assert model.history_.epochs == 3

    def test_validation_split_from_config(self, encoded_problem):
        config = LeHDCConfig(
            epochs=3, batch_size=32, dropout_rate=0.0, validation_fraction=0.2
        )
        model = LeHDCClassifier(config=config, seed=5)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert len(model.history_.validation_accuracy) == 3

    def test_explicit_validation_set(self, encoded_problem, fast_config):
        model = LeHDCClassifier(config=fast_config, seed=6)
        model.fit(
            encoded_problem["train_hypervectors"],
            encoded_problem["train_labels"],
            validation_hypervectors=encoded_problem["test_hypervectors"],
            validation_labels=encoded_problem["test_labels"],
            epochs=4,
        )
        assert len(model.history_.validation_accuracy) == 4

    def test_inference_matches_bnn_forward(self, encoded_problem, fast_config):
        # The HDC inference path (argmax of dot products) must agree with the
        # trained BNN's forward pass in eval mode — the paper's equivalence.
        model = LeHDCClassifier(config=fast_config, seed=8)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        queries = encoded_problem["test_hypervectors"][:25]
        hdc_predictions = model.predict(queries)
        model.model_.eval()
        bnn_logits = model.model_.forward(queries.astype(np.float64))
        bnn_predictions = np.argmax(bnn_logits, axis=1)
        np.testing.assert_array_equal(hdc_predictions, bnn_predictions)

    def test_default_config_used_when_none(self):
        model = LeHDCClassifier(seed=9)
        assert model.config.epochs == 100

    def test_predict_before_fit(self, encoded_problem):
        with pytest.raises(RuntimeError):
            LeHDCClassifier(seed=10).predict(encoded_problem["test_hypervectors"])
