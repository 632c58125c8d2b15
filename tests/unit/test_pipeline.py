"""Unit tests for repro.classifiers.pipeline."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.hdc.encoders import RecordEncoder


class TestHDCPipeline:
    def test_fit_predict_with_baseline(self, small_problem):
        pipeline = HDCPipeline(
            RecordEncoder(dimension=1024, num_levels=16, seed=0), BaselineHDC(seed=0)
        )
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        accuracy = pipeline.score(
            small_problem["test_features"], small_problem["test_labels"]
        )
        assert accuracy > 0.5

    def test_fit_predict_with_lehdc(self, small_problem):
        config = LeHDCConfig(epochs=10, batch_size=32, dropout_rate=0.2, weight_decay=0.01)
        pipeline = HDCPipeline(
            RecordEncoder(dimension=512, num_levels=16, seed=1),
            LeHDCClassifier(config=config, seed=1),
        )
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        accuracy = pipeline.score(
            small_problem["test_features"], small_problem["test_labels"]
        )
        assert accuracy > 0.5

    def test_predict_before_fit_raises(self, small_problem):
        pipeline = HDCPipeline(
            RecordEncoder(dimension=256, seed=2), BaselineHDC(seed=2)
        )
        with pytest.raises(RuntimeError):
            pipeline.predict(small_problem["test_features"])

    def test_exposes_class_hypervectors(self, small_problem):
        pipeline = HDCPipeline(
            RecordEncoder(dimension=256, num_levels=8, seed=3), BaselineHDC(seed=3)
        )
        assert pipeline.class_hypervectors_ is None
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        assert pipeline.class_hypervectors_.shape == (
            small_problem["num_classes"],
            256,
        )

    def test_reuses_prefitted_encoder(self, small_problem):
        encoder = RecordEncoder(dimension=256, num_levels=8, seed=4)
        encoder.fit(small_problem["train_features"])
        position_vectors_before = encoder.position_memory.vectors.copy()
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=4))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        np.testing.assert_array_equal(
            encoder.position_memory.vectors, position_vectors_before
        )

    def test_top_k_ordering_and_clipping(self, small_problem):
        pipeline = HDCPipeline(
            RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=7),
            BaselineHDC(seed=7),
        )
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        labels, scores = pipeline.top_k(small_problem["test_features"], k=3)
        assert labels.shape == (small_problem["test_features"].shape[0], 3)
        assert np.all(np.diff(scores, axis=1) <= 0)
        np.testing.assert_array_equal(
            labels[:, 0], pipeline.predict(small_problem["test_features"])
        )
        # k above the class count is clipped.
        clipped, _ = pipeline.top_k(small_problem["test_features"], k=99)
        assert clipped.shape[1] == small_problem["num_classes"]
        with pytest.raises(ValueError):
            pipeline.top_k(small_problem["test_features"], k=0)

    def test_batch_apis_require_fit(self, small_problem):
        pipeline = HDCPipeline(RecordEncoder(dimension=256, seed=8), BaselineHDC(seed=8))
        with pytest.raises(RuntimeError):
            pipeline.predict(small_problem["test_features"])
        with pytest.raises(RuntimeError):
            pipeline.top_k(small_problem["test_features"])

    def test_forwards_fit_kwargs(self, small_problem):
        from repro.classifiers.retraining import RetrainingHDC

        encoder = RecordEncoder(dimension=256, num_levels=8, seed=5)
        encoder.fit(small_problem["train_features"])
        test_encoded = encoder.encode(small_problem["test_features"])
        pipeline = HDCPipeline(encoder, RetrainingHDC(iterations=3, epsilon=0.0, seed=5))
        pipeline.fit(
            small_problem["train_features"],
            small_problem["train_labels"],
            validation_hypervectors=test_encoded,
            validation_labels=small_problem["test_labels"],
        )
        assert len(pipeline.classifier.history_.test_accuracy) == 3

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_an_infinite_value_in_a_constant_feature_scores_like_the_constant(
        self, small_problem, value
    ):
        # A feature constant at fit time is level 0 whatever its value, so an
        # infinite one changes no score (pytest makes its RuntimeWarning an
        # error).
        train = small_problem["train_features"].copy()
        train[:, 3] = 2.5
        pipeline = HDCPipeline(
            RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=9),
            BaselineHDC(seed=9),
        )
        pipeline.fit(train, small_problem["train_labels"])
        rows = small_problem["test_features"][:6].copy()
        rows[:, 3] = 2.5
        expected = pipeline.top_k(rows, k=3)
        rows[:, 3] = value
        labels, scores = pipeline.top_k(rows, k=3)
        np.testing.assert_array_equal(labels, expected[0])
        np.testing.assert_array_equal(scores, expected[1])
