"""Unit tests for repro.classifiers.baseline."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.hdc.hypervector import hamming_distance, random_hypervectors


class TestBaselineHDC:
    def test_fit_produces_bipolar_class_hypervectors(self, encoded_problem):
        model = BaselineHDC(seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert model.class_hypervectors_.shape == (
            encoded_problem["num_classes"],
            encoded_problem["dimension"],
        )
        assert set(np.unique(model.class_hypervectors_)) <= {-1, 1}

    def test_accuracy_beats_chance(self, encoded_problem):
        model = BaselineHDC(seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        accuracy = model.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert accuracy > 0.5  # chance for 4 classes is 0.25

    def test_class_hypervector_is_majority_of_members(self):
        # Two classes, constructed so the majority is unambiguous.
        class0 = np.tile(np.array([[1, 1, -1, -1]], dtype=np.int8), (3, 1))
        class1 = np.tile(np.array([[-1, -1, 1, 1]], dtype=np.int8), (3, 1))
        hypervectors = np.vstack([class0, class1])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model = BaselineHDC(tie_break="positive", seed=0).fit(hypervectors, labels)
        np.testing.assert_array_equal(model.class_hypervectors_[0], [1, 1, -1, -1])
        np.testing.assert_array_equal(model.class_hypervectors_[1], [-1, -1, 1, 1])

    def test_accumulators_kept(self):
        hypervectors = random_hypervectors(10, 64, seed=0)
        labels = np.array([0, 1] * 5)
        model = BaselineHDC(seed=1).fit(hypervectors, labels)
        assert model.accumulators_.shape == (2, 64)
        assert model.accumulators_.dtype == np.int64

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            BaselineHDC().predict(random_hypervectors(1, 16, seed=0))

    def test_single_class_rejected(self):
        hypervectors = random_hypervectors(5, 32, seed=2)
        with pytest.raises(ValueError):
            BaselineHDC().fit(hypervectors, np.zeros(5, dtype=int))

    def test_dimension_mismatch_at_predict(self, encoded_problem):
        model = BaselineHDC(seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        with pytest.raises(ValueError):
            model.predict(random_hypervectors(2, 77, seed=3))

    def test_decision_scores_consistent_with_hamming(self, encoded_problem):
        model = BaselineHDC(seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        queries = encoded_problem["test_hypervectors"][:10]
        by_scores = np.argmax(model.decision_scores(queries), axis=1)
        by_hamming = np.argmin(hamming_distance(queries, model.class_hypervectors_), axis=1)
        np.testing.assert_array_equal(by_scores, by_hamming)

    def test_invalid_tie_break(self):
        with pytest.raises(ValueError):
            BaselineHDC(tie_break="sometimes")

    def test_dimension_property(self, encoded_problem):
        model = BaselineHDC(seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert model.dimension_ == encoded_problem["dimension"]
