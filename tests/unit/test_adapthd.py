"""Unit tests for repro.classifiers.adapthd."""

import numpy as np
import pytest

from repro.classifiers.adapthd import AdaptHDC


class TestAdaptHDC:
    def test_fit_and_score_data_mode(self, encoded_problem):
        model = AdaptHDC(iterations=5, mode="data", seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        accuracy = model.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert accuracy > 0.5

    def test_fit_and_score_iteration_mode(self, encoded_problem):
        model = AdaptHDC(iterations=5, mode="iteration", seed=1)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        accuracy = model.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert accuracy > 0.5

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            AdaptHDC(mode="hybrid")

    def test_data_mode_update_scales_with_gap(self, one_sample_update):
        dimension = 100
        sample = np.ones(dimension)
        model = AdaptHDC(max_learning_rate=1.0, mode="data", seed=2)

        small_gap_state = np.zeros((2, dimension))
        # scores: wrong class barely ahead of the true class
        one_sample_update(model, small_gap_state, sample, 0, 1, np.array([10.0, 12.0]))
        small_delta = np.abs(small_gap_state[0]).sum()

        large_gap_state = np.zeros((2, dimension))
        # scores: wrong class far ahead of the true class
        one_sample_update(model, large_gap_state, sample, 0, 1, np.array([-80.0, 80.0]))
        large_delta = np.abs(large_gap_state[0]).sum()

        assert large_delta > small_delta

    def test_iteration_mode_rate_follows_error(self, one_sample_update):
        from repro.classifiers.retraining import RetrainingHistory

        model = AdaptHDC(max_learning_rate=1.0, mode="iteration", seed=3)
        model.history_ = RetrainingHistory(train_accuracy=[0.9])
        state = np.zeros((2, 10))
        one_sample_update(model, state, np.ones(10), 0, 1, np.array([0.0, 1.0]))
        # With 90% training accuracy the adaptive rate is 0.1, so the update
        # magnitude per coordinate is 0.1 rather than the full max rate.
        assert np.allclose(np.abs(state[0]), 0.1)

    def test_history_recorded(self, encoded_problem):
        model = AdaptHDC(iterations=4, epsilon=0.0, seed=4)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        assert model.history_.iterations == 4
