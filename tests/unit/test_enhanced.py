"""Unit tests for repro.classifiers.enhanced."""

import numpy as np

from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.retraining import RetrainingHDC


class TestEnhancedRetrainingHDC:
    def test_fit_and_score(self, encoded_problem):
        model = EnhancedRetrainingHDC(iterations=5, seed=0)
        model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
        accuracy = model.score(
            encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
        )
        assert accuracy > 0.5

    def test_updates_multiple_wrong_classes(self, one_sample_update):
        # Construct a situation with two wrong classes closer than the truth:
        # the enhanced update must move both, the basic update only one.
        dimension = 64
        rng = np.random.default_rng(0)
        sample = (2 * rng.integers(0, 2, size=dimension) - 1).astype(np.float64)
        nonbinary = np.vstack(
            [
                -sample * 0.1,  # true class, far from sample
                sample * 0.9,  # wrong class 1, very close
                sample * 0.8,  # wrong class 2, also close
            ]
        )
        scores = nonbinary_scores = np.sign(nonbinary) @ sample

        enhanced = EnhancedRetrainingHDC(iterations=1, seed=1)
        enhanced_state = nonbinary.copy()
        one_sample_update(enhanced, enhanced_state, sample, 0, 1, scores)

        basic = RetrainingHDC(iterations=1, seed=2)
        basic_state = nonbinary.copy()
        one_sample_update(basic, basic_state, sample, 0, 1, nonbinary_scores)

        # Both strategies move class 0 (true) and class 1 (predicted); only the
        # enhanced strategy also moves class 2.
        assert not np.allclose(enhanced_state[2], nonbinary[2])
        np.testing.assert_allclose(basic_state[2], nonbinary[2])

    def test_update_scale_depends_on_distance(self, one_sample_update):
        dimension = 32
        sample = np.ones(dimension)
        # True class nearly identical to the sample -> tiny pull.
        near = np.vstack([sample * 0.9, -sample * 0.9])
        near_scores = np.sign(near) @ sample
        # True class opposite to the sample -> large pull.
        far = np.vstack([-sample * 0.9, sample * 0.9])
        far_scores = np.sign(far) @ sample

        model = EnhancedRetrainingHDC(iterations=1, seed=3)
        near_state = near.copy()
        one_sample_update(model, near_state, sample, 0, 1, near_scores)
        far_state = far.copy()
        one_sample_update(model, far_state, sample, 0, 1, far_scores)

        near_delta = np.abs(near_state[0] - near[0]).sum()
        far_delta = np.abs(far_state[0] - far[0]).sum()
        assert far_delta > near_delta

    def test_history_compatible_with_parent(self, encoded_problem):
        model = EnhancedRetrainingHDC(iterations=3, epsilon=0.0, seed=4)
        model.fit(
            encoded_problem["train_hypervectors"],
            encoded_problem["train_labels"],
            validation_hypervectors=encoded_problem["test_hypervectors"],
            validation_labels=encoded_problem["test_labels"],
        )
        assert model.history_.iterations == 3
        assert len(model.history_.test_accuracy) == 3
