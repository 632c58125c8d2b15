"""Unit tests for repro.classifiers.nonbinary."""

import numpy as np
import pytest

from repro.classifiers.base import cosine_scores
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.nearest_centroid import NearestCentroidClassifier
from repro.classifiers.nonbinary import NonBinaryHDC
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier


class TestNonBinaryHDC:
    def test_fit_and_score(self, encoded_problem):
        model = NonBinaryHDC(seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        accuracy = model.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert accuracy > 0.5

    def test_nonbinary_at_least_as_good_as_binary_centroids(self, encoded_problem):
        # Non-binary centroids keep more information than their sign, so on the
        # same encoding they should not be meaningfully worse.
        binary = BaselineHDC(seed=0).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        nonbinary = NonBinaryHDC(seed=0).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        binary_accuracy = binary.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        nonbinary_accuracy = nonbinary.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert nonbinary_accuracy >= binary_accuracy - 0.05

    def test_retraining_iterations_improve_train_accuracy(self, encoded_problem):
        plain = NonBinaryHDC(retraining_iterations=0, seed=1).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        retrained = NonBinaryHDC(retraining_iterations=5, seed=1).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        plain_train = plain.score(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        retrained_train = retrained.score(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        assert retrained_train >= plain_train - 0.02

    def test_binarised_form_also_exposed(self, encoded_problem):
        model = NonBinaryHDC(seed=2)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert set(np.unique(model.class_hypervectors_)) <= {-1, 1}
        assert model.nonbinary_class_hypervectors_.dtype == np.float64

    def test_scores_are_cosine_bounded(self, encoded_problem):
        model = NonBinaryHDC(seed=3)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        scores = model.decision_scores(encoded_problem["test_hypervectors"][:20])
        assert np.all(scores <= 1.0 + 1e-9)
        assert np.all(scores >= -1.0 - 1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            NonBinaryHDC(retraining_iterations=-1)
        with pytest.raises(ValueError):
            NonBinaryHDC(learning_rate=0.0)


class TestCosineScores:
    def test_zero_norm_rows_score_zero(self):
        samples = np.array([[3.0, 4.0], [0.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        scores = cosine_scores(samples, centroids)
        np.testing.assert_allclose(scores, [[0.6, 0.0, 0.8], [0.0, 0.0, 0.0]])

    def test_every_cosine_classifier_scores_through_it(self, encoded_problem):
        samples = encoded_problem["test_hypervectors"][:40]
        centroids = NonBinaryHDC(seed=0).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        ).nonbinary_class_hypervectors_
        expected = cosine_scores(samples.astype(np.float64), centroids)

        nonbinary = NonBinaryHDC(seed=0)
        nonbinary.nonbinary_class_hypervectors_ = centroids
        np.testing.assert_array_equal(nonbinary.decision_scores(samples), expected)

        # Non-binary LeHDC keeps float32 weights: norms stay float32 too.
        lehdc = NonBinaryLeHDCClassifier(seed=0)
        lehdc.nonbinary_class_hypervectors_ = centroids.astype(np.float32)
        np.testing.assert_array_equal(
            lehdc.decision_scores(samples),
            cosine_scores(samples.astype(np.float64), centroids.astype(np.float32)),
        )

        nearest = NearestCentroidClassifier(metric="cosine")
        nearest.centroids_ = centroids
        np.testing.assert_array_equal(nearest.predict(samples), np.argmax(expected, axis=1))
