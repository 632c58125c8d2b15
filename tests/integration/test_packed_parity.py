"""Packed-kernel predictions must match dense predictions bit-for-bit.

The whole point of the kernel-layer refactor is that the packed XOR+popcount
path is a *re-implementation*, not an approximation: for every classifier the
packed ``predict``/``top_k`` must equal the dense results exactly — including
the ensemble's max-over-sub-models rule (packed against its flat model
bank).  Non-binary LeHDC's cosine scoring has no packed twin: the pipeline
scores it on the dense path, and the packed paths and the engine refuse it.
"""

import numpy as np
import pytest

import repro.kernels.packed as packed_kernels
from repro.classifiers.base import top_k_from_scores
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import DEFAULT_CONFIG
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.hdc.encoders import RecordEncoder
from repro.kernels.packed import pack_bipolar
from repro.serve.engine import PackedInferenceEngine

FAST_LEHDC = DEFAULT_CONFIG.with_overrides(
    epochs=3, batch_size=32, validation_fraction=0.0
)

CLASSIFIER_FACTORIES = {
    "baseline": lambda: BaselineHDC(seed=0),
    "retraining": lambda: RetrainingHDC(iterations=5, seed=0),
    "lehdc": lambda: LeHDCClassifier(config=FAST_LEHDC, seed=0),
    "lehdc-nonbinary": lambda: NonBinaryLeHDCClassifier(config=FAST_LEHDC, seed=0),
    "multimodel": lambda: MultiModelHDC(models_per_class=4, iterations=2, seed=0),
}


@pytest.fixture(scope="module", params=sorted(CLASSIFIER_FACTORIES))
def fitted(request, small_problem):
    """One fitted (classifier, encoded splits) bundle per strategy."""
    encoder = RecordEncoder(dimension=512, num_levels=16, tie_break="positive", seed=1)
    encoder.fit(small_problem["train_features"])
    train_encoded = encoder.encode(small_problem["train_features"])
    test_encoded = encoder.encode(small_problem["test_features"])
    classifier = CLASSIFIER_FACTORIES[request.param]()
    classifier.fit(train_encoded, small_problem["train_labels"])
    return {
        "name": request.param,
        "encoder": encoder,
        "classifier": classifier,
        "test_encoded": test_encoded,
        "test_features": small_problem["test_features"],
    }


class TestClassifierPackedParity:
    def test_packed_predict_matches_dense(self, fitted):
        classifier = fitted["classifier"]
        dense = classifier.predict(fitted["test_encoded"])
        if classifier.supports_packed_scoring():
            packed = classifier.predict_packed(pack_bipolar(fitted["test_encoded"]))
            np.testing.assert_array_equal(packed, dense)
        else:
            # Bespoke scoring with no packed twin (non-binary LeHDC's
            # cosine): the packed path must refuse rather than silently produce different
            # predictions.
            with pytest.raises(ValueError, match="decision_scores"):
                classifier.predict_packed(pack_bipolar(fitted["test_encoded"]))

    def test_packed_scores_match_dense_exactly(self, fitted):
        classifier = fitted["classifier"]
        if not classifier.supports_packed_scoring():
            pytest.skip("dense-only scoring rule")
        dense = classifier.decision_scores(fitted["test_encoded"])
        packed = classifier.decision_scores_packed(
            pack_bipolar(fitted["test_encoded"])
        )
        np.testing.assert_array_equal(packed, dense)

    def test_row_blocked_scores_are_bit_identical(self, fitted, monkeypatch):
        """Scoring one query row per XOR+popcount block changes no score.

        At the default scratch budget these queries fit in one block; a
        one-byte budget forces the blocked loop to split them row by row.
        """
        classifier = fitted["classifier"]
        if not classifier.supports_packed_scoring():
            pytest.skip("dense-only scoring rule")
        packed_queries = pack_bipolar(fitted["test_encoded"])
        expected = classifier.decision_scores_packed(packed_queries)
        monkeypatch.setattr(packed_kernels, "_DISTANCE_BLOCK_BYTES", 1)
        np.testing.assert_array_equal(
            classifier.decision_scores_packed(packed_queries), expected
        )


class TestPipelinePackedParity:
    def test_pipeline_packed_vs_dense_predict_and_top_k(self, fitted):
        # The reference is the classifier's own dense rule over the encoder's
        # dense output; the pipeline takes the packed path when it can.
        classifier = fitted["classifier"]
        pipeline = HDCPipeline(fitted["encoder"], classifier)
        pipeline._fitted = True
        features = fitted["test_features"]
        dense = classifier.decision_scores(fitted["test_encoded"])
        dense_labels = np.argmax(dense, axis=1)

        np.testing.assert_array_equal(pipeline.predict(features), dense_labels)
        packed_labels, packed_scores = pipeline.top_k(features, k=3)
        top_labels, top_scores = top_k_from_scores(dense, 3)
        np.testing.assert_array_equal(packed_labels, top_labels)
        np.testing.assert_array_equal(packed_scores, top_scores)


class TestEnginePackedParity:
    def test_engine_matches_pipeline_bit_for_bit(self, fitted):
        pipeline = HDCPipeline(fitted["encoder"], fitted["classifier"])
        pipeline._fitted = True
        if not fitted["classifier"].supports_packed_scoring():
            # The engine serves XOR+popcount only: a classifier without a
            # packed twin is refused, not scored some other way.
            with pytest.raises(ValueError, match="NonBinaryLeHDCClassifier has no packed"):
                PackedInferenceEngine(pipeline, name=fitted["name"])
            return
        engine = PackedInferenceEngine(pipeline, name=fitted["name"])
        features = fitted["test_features"]
        np.testing.assert_array_equal(
            np.argmax(engine.decision_scores(features), axis=1), pipeline.predict(features)
        )
        engine_labels, _ = engine.top_k(features, k=3)
        pipeline_labels, _ = pipeline.top_k(features, k=3)
        np.testing.assert_array_equal(engine_labels, pipeline_labels)

