"""Unit tests for repro.serve.engine (the packed inference engine)."""

import numpy as np
import pytest

from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.nonbinary import NonBinaryHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.hdc.encoders import NGramEncoder, RecordEncoder
from repro.serve.engine import PackedInferenceEngine

BINARY_STRATEGIES = {
    "baseline": lambda: BaselineHDC(seed=0),
    "retraining": lambda: RetrainingHDC(iterations=3, seed=0),
    "adapthd": lambda: AdaptHDC(iterations=3, seed=0),
    "enhanced": lambda: EnhancedRetrainingHDC(iterations=3, seed=0),
    "lehdc": lambda: LeHDCClassifier(
        config=LeHDCConfig(epochs=3, batch_size=32), seed=0
    ),
}


def fit_pipeline(small_problem, classifier, encoder=None):
    encoder = encoder or RecordEncoder(
        dimension=512, num_levels=8, tie_break="positive", seed=0
    )
    pipeline = HDCPipeline(encoder, classifier)
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return pipeline


class TestPackedEqualsDense:
    @pytest.mark.parametrize("strategy", sorted(BINARY_STRATEGIES))
    def test_packed_predictions_match_pipeline(self, small_problem, strategy):
        pipeline = fit_pipeline(small_problem, BINARY_STRATEGIES[strategy]())
        engine = PackedInferenceEngine(pipeline, name=strategy)
        assert engine.mode == "packed"
        np.testing.assert_array_equal(
            engine.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )

    def test_packed_scores_match_dense_dot(self, small_problem):
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        features = small_problem["test_features"]
        encoded = pipeline.encoder.encode(features)
        np.testing.assert_array_equal(
            engine.decision_scores(features),
            pipeline.classifier.decision_scores(encoded),
        )

    def test_ngram_encoder_engine(self, small_problem):
        encoder = NGramEncoder(
            dimension=512, num_levels=8, ngram=3, tie_break="positive", seed=0
        )
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0), encoder=encoder)
        engine = PackedInferenceEngine(pipeline)
        np.testing.assert_array_equal(
            engine.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )

    def test_encode_matches_encoder(self, small_problem):
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        features = small_problem["test_features"]
        np.testing.assert_array_equal(
            engine.encode(features), pipeline.encoder.encode(features)
        )

    def test_single_rows_match_batch(self, small_problem):
        """Batch 1 and 2 (the serving shapes) score like the whole batch."""
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        features = small_problem["test_features"][:6]
        batch = engine.decision_scores(features)
        for start in range(0, 6, 2):
            np.testing.assert_array_equal(
                engine.decision_scores(features[start : start + 2]),
                batch[start : start + 2],
            )
        for index, row in enumerate(features):
            np.testing.assert_array_equal(engine.decision_scores(row), batch[index : index + 1])


class TestDenseFallback:
    def test_nonbinary_uses_dense_mode(self, small_problem):
        pipeline = fit_pipeline(small_problem, NonBinaryHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        assert engine.mode == "dense"
        np.testing.assert_array_equal(
            engine.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )


class TestEnsemblePackedServing:
    """The SearcHD-style ensemble serves on the packed path, not dense."""

    def test_multimodel_takes_packed_path(self, small_problem):
        pipeline = fit_pipeline(
            small_problem, MultiModelHDC(models_per_class=4, iterations=1, seed=0)
        )
        engine = PackedInferenceEngine(pipeline)
        assert engine.mode == "packed"
        features = small_problem["test_features"]
        np.testing.assert_array_equal(
            engine.predict(features), pipeline.predict(features)
        )
        # Dense-path scores match exactly too (max over sub-models both ways).
        encoded = pipeline.encoder.encode(features)
        np.testing.assert_array_equal(
            engine.decision_scores(features),
            pipeline.classifier.decision_scores(encoded),
        )

    def test_resident_bank_is_the_full_ensemble(self, small_problem):
        models_per_class = 4
        pipeline = fit_pipeline(
            small_problem,
            MultiModelHDC(models_per_class=models_per_class, iterations=1, seed=0),
        )
        engine = PackedInferenceEngine(pipeline)
        num_rows = small_problem["num_classes"] * models_per_class
        assert engine.info()["packed_rows"] == num_rows
        assert engine.packed_storage_bytes == num_rows * (512 // 64) * 8


class TestEngineOutputs:
    def test_predict_proba_rows_sum_to_one(self, small_problem):
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        proba = engine.predict_proba(small_problem["test_features"])
        assert proba.shape == (
            small_problem["test_features"].shape[0],
            small_problem["num_classes"],
        )
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        np.testing.assert_array_equal(
            np.argmax(proba, axis=1), engine.predict(small_problem["test_features"])
        )

    def test_top_k_is_sorted_and_clipped(self, small_problem):
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        labels, scores = engine.top_k(small_problem["test_features"], k=100)
        assert labels.shape[1] == small_problem["num_classes"]
        assert np.all(np.diff(scores, axis=1) <= 0)
        np.testing.assert_array_equal(
            labels[:, 0], engine.predict(small_problem["test_features"])
        )

    def test_top_k_rejects_bad_k(self, small_problem):
        engine = PackedInferenceEngine(fit_pipeline(small_problem, BaselineHDC(seed=0)))
        with pytest.raises(ValueError):
            engine.top_k(small_problem["test_features"], k=0)

    def test_info_and_warmup(self, small_problem):
        engine = PackedInferenceEngine(
            fit_pipeline(small_problem, BaselineHDC(seed=0)), name="m"
        )
        engine.warmup()
        info = engine.info()
        assert info["name"] == "m"
        assert info["mode"] == "packed"
        assert info["dimension"] == 512
        assert info["packed_storage_bytes"] == 4 * (512 // 64) * 8

    def test_unfitted_pipeline_rejected(self):
        pipeline = HDCPipeline(RecordEncoder(dimension=128, seed=0), BaselineHDC(seed=0))
        with pytest.raises(ValueError):
            PackedInferenceEngine(pipeline)


class TestFromFile:
    def test_roundtrip_through_saved_model(self, small_problem, tmp_path):
        from repro.io import save_model

        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        path = save_model(tmp_path / "m.npz", pipeline, strategy_name="baseline")
        engine = PackedInferenceEngine.from_file(path)
        assert engine.name == "m"
        assert engine.metadata["strategy"] == "baseline"
        np.testing.assert_array_equal(
            engine.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )


class TestPackedExportOnClassifiers:
    def test_packed_class_hypervectors_roundtrip(self, encoded_problem):
        from repro.kernels import unpack_bipolar

        classifier = BaselineHDC(seed=0).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        packed = classifier.packed_class_hypervectors()
        assert len(packed) == encoded_problem["num_classes"]
        np.testing.assert_array_equal(
            unpack_bipolar(packed), classifier.class_hypervectors_
        )

    def test_packed_export_requires_fit(self):
        with pytest.raises(RuntimeError):
            BaselineHDC(seed=0).packed_class_hypervectors()


class TestEngineDoesNotMutateSharedEncoder:
    def test_engine_shares_the_encoder_accumulator(self, small_problem):
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        engine = PackedInferenceEngine(pipeline)
        assert engine._accumulator is pipeline.encoder._get_accumulator()

    def test_engine_rejects_a_level_memory_that_is_not_nested(self, small_problem):
        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        encoder = pipeline.encoder
        levels = encoder.level_memory.vectors
        coordinate = int(np.flatnonzero(levels[1] != levels[0])[0])
        levels[2:, coordinate] = levels[0, coordinate]  # flips back: twice
        encoder._accumulator = None
        with pytest.raises(ValueError, match="not nested"):
            PackedInferenceEngine(pipeline)
