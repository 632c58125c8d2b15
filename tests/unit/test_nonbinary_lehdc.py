"""Unit tests for repro.core.nonbinary_lehdc (the footnote-1 variant)."""

import numpy as np
import pytest

from repro.classifiers.base import cosine_scores
from repro.core.configs import LeHDCConfig
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier


@pytest.fixture(scope="module")
def fast_config():
    return LeHDCConfig(
        epochs=15, batch_size=32, dropout_rate=0.1, weight_decay=0.01, learning_rate=0.01
    )


def _class_sums(hypervectors, labels):
    """Plain non-binary centroids: each class's hypervectors summed in float64."""
    centroids = np.zeros((int(labels.max()) + 1, hypervectors.shape[1]))
    np.add.at(centroids, labels, hypervectors.astype(np.float64))
    return centroids


class TestNonBinaryLeHDC:
    def test_fit_produces_real_valued_class_hypervectors(self, encoded_problem, fast_config):
        model = NonBinaryLeHDCClassifier(config=fast_config, seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert model.nonbinary_class_hypervectors_.shape == (
            encoded_problem["num_classes"],
            encoded_problem["dimension"],
        )
        # Latent weights follow the kernel layer's float policy (float32 by
        # default); only real-valuedness matters here, not the width.
        assert np.issubdtype(model.nonbinary_class_hypervectors_.dtype, np.floating)
        assert set(np.unique(model.class_hypervectors_)) <= {-1, 1}

    def test_beats_plain_nonbinary_centroids(self, encoded_problem, fast_config):
        centroids = _class_sums(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        learned = NonBinaryLeHDCClassifier(config=fast_config, seed=1).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        test_hypervectors = encoded_problem["test_hypervectors"].astype(np.float64)
        centroid_accuracy = np.mean(
            np.argmax(cosine_scores(test_hypervectors, centroids), axis=1)
            == encoded_problem["test_labels"]
        )
        learned_accuracy = learned.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert learned_accuracy >= centroid_accuracy - 0.03

    def test_scores_are_cosine_bounded(self, encoded_problem, fast_config):
        model = NonBinaryLeHDCClassifier(config=fast_config, seed=2)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        scores = model.decision_scores(encoded_problem["test_hypervectors"][:10])
        assert np.all(scores <= 1.0 + 1e-9)
        assert np.all(scores >= -1.0 - 1e-9)

    def test_inference_matches_network_predict(self, encoded_problem, fast_config):
        # Footnote 1's equivalence: cosine inference over the non-binary class
        # hypervectors is the trained network's own prediction rule.
        model = NonBinaryLeHDCClassifier(config=fast_config, seed=8)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        queries = encoded_problem["test_hypervectors"][:25]
        np.testing.assert_array_equal(model.predict(queries), model.model_.predict(queries))

    def test_history_and_validation_tracking(self, encoded_problem, fast_config):
        model = NonBinaryLeHDCClassifier(config=fast_config, seed=4)
        model.fit(
            encoded_problem["train_hypervectors"],
            encoded_problem["train_labels"],
            validation_hypervectors=encoded_problem["test_hypervectors"],
            validation_labels=encoded_problem["test_labels"],
            epochs=4,
        )
        assert model.history_.epochs == 4
        assert len(model.history_.validation_accuracy) == 4

    def test_validation_args_must_come_together(self, encoded_problem, fast_config):
        model = NonBinaryLeHDCClassifier(config=fast_config, seed=5)
        with pytest.raises(ValueError):
            model.fit(
                encoded_problem["train_hypervectors"],
                encoded_problem["train_labels"],
                validation_hypervectors=encoded_problem["test_hypervectors"],
            )

    def test_validation_split_from_config(self, encoded_problem, fast_config):
        config = fast_config.with_overrides(epochs=3, validation_fraction=0.25)
        model = NonBinaryLeHDCClassifier(config=config, seed=6)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert len(model.history_.validation_accuracy) == 3

    def test_predict_before_fit(self, encoded_problem):
        with pytest.raises(RuntimeError):
            NonBinaryLeHDCClassifier(seed=7).predict(encoded_problem["test_hypervectors"])


class TestCosineScores:
    def test_zero_norm_rows_score_zero(self):
        samples = np.array([[3.0, 4.0], [0.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        scores = cosine_scores(samples, centroids)
        np.testing.assert_allclose(scores, [[0.6, 0.0, 0.8], [0.0, 0.0, 0.0]])

    def test_nonbinary_lehdc_scores_through_it(self, encoded_problem):
        samples = encoded_problem["test_hypervectors"][:40]
        centroids = _class_sums(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        # Non-binary LeHDC keeps float32 weights: norms stay float32 too.
        lehdc = NonBinaryLeHDCClassifier(seed=0)
        lehdc.nonbinary_class_hypervectors_ = centroids.astype(np.float32)
        np.testing.assert_array_equal(
            lehdc.decision_scores(samples),
            cosine_scores(samples.astype(np.float64), centroids.astype(np.float32)),
        )
