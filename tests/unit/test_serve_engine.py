"""Unit tests for repro.serve.engine (the packed inference engine)."""

import copy

import numpy as np
import pytest

from repro.classifiers.base import top_k_from_scores
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.hdc.encoders import RecordEncoder
from repro.serve.engine import PackedInferenceEngine
from repro.serve.registry import ModelRegistry

BINARY_STRATEGIES = {
    "baseline": lambda: BaselineHDC(seed=0),
    "retraining": lambda: RetrainingHDC(iterations=3, seed=0),
    "enhanced": lambda: EnhancedRetrainingHDC(iterations=3, seed=0),
    "lehdc": lambda: LeHDCClassifier(
        config=LeHDCConfig(epochs=3, batch_size=32), seed=0
    ),
}


def fit_pipeline(small_problem, classifier, encoder=None, num_features=None):
    """*classifier* fitted on the small problem's first *num_features* columns."""
    encoder = encoder or RecordEncoder(
        dimension=512, num_levels=8, tie_break="positive", seed=0
    )
    pipeline = HDCPipeline(encoder, classifier)
    pipeline.fit(
        small_problem["train_features"][:, :num_features], small_problem["train_labels"]
    )
    return pipeline


class TestPackedEqualsDense:
    @pytest.mark.parametrize("strategy", sorted(BINARY_STRATEGIES))
    def test_packed_predictions_match_pipeline(self, small_problem, strategy):
        pipeline = fit_pipeline(small_problem, BINARY_STRATEGIES[strategy]())
        engine = PackedInferenceEngine(pipeline, name=strategy)
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


def _edge_rows(pipeline, features):
    """64 rows: exact bin edges, values outside the training range, 1e300."""
    quantizer = pipeline.encoder._quantizer
    levels = quantizer.num_levels
    columns = np.arange(features.shape[1])
    edges = [
        quantizer._minimums + (columns + j) % (levels + 1) * quantizer._ranges / levels
        for j in range(levels + 1)
    ]
    outside = [
        quantizer._minimums - quantizer._ranges,
        quantizer._minimums + 2 * quantizer._ranges,
        np.where(columns % 3 == 0, 1e300, features[0]),
    ]
    return np.vstack(edges + outside + [features])[:64]


#: name -> (encoder dimension and levels, classifier factory, feature count);
#: the small problem has 24 features, so Eq. 1 sums can tie at 0, and 23
#: (an odd count) never do.
_CASES = {
    "record": ((512, 8), lambda: BaselineHDC(seed=0), 24),
    "dimension-500": ((500, 8), lambda: BaselineHDC(seed=0), 24),
    "one-level": ((512, 1), lambda: BaselineHDC(seed=0), 24),
    "two-levels": ((512, 2), lambda: BaselineHDC(seed=0), 24),
    "odd-features": ((512, 8), lambda: BaselineHDC(seed=0), 23),
    "multimodel": (
        (512, 8), lambda: MultiModelHDC(models_per_class=4, iterations=1, seed=0), 24
    ),
    "retraining": ((512, 8), lambda: RetrainingHDC(iterations=3, seed=0), 24),
}


def _case_pipeline(small_problem, case, tie_break):
    (dimension, num_levels), classifier, num_features = _CASES[case]
    encoder = RecordEncoder(
        dimension=dimension, num_levels=num_levels, tie_break=tie_break, seed=0
    )
    return fit_pipeline(small_problem, classifier(), encoder, num_features)


def _dense_top_k(pipeline, rows, k):
    """Dense Eq. 1 reference: int8 encode, the classifier's dense scores."""
    encoded = pipeline.encoder.encode(rows)
    return top_k_from_scores(pipeline.classifier.decision_scores(encoded), k)


class TestEngineEqualsDenseReference:
    """Every batch of every engine call equals the dense Eq. 1 reference.

    The reference runs on a deep copy of the pipeline taken before the
    engine call, so for ``tie_break="random"`` both draw the same ``sgn(0)``
    stream.
    """

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 64])
    @pytest.mark.parametrize("tie_break", ["positive", "random"])
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_matches_dense_reference(self, small_problem, case, tie_break, batch, k):
        pipeline = _case_pipeline(small_problem, case, tie_break)
        engine = PackedInferenceEngine(pipeline)
        rows = _edge_rows(pipeline, small_problem["test_features"][:, : _CASES[case][2]])
        for start in range(0, len(rows), batch):
            query = rows[start : start + batch]
            reference = copy.deepcopy(pipeline)
            labels, scores = engine.top_k(query, k=k)
            expected_labels, expected_scores = _dense_top_k(reference, query, k)
            np.testing.assert_array_equal(labels, expected_labels)
            np.testing.assert_array_equal(scores, expected_scores)

    @pytest.mark.parametrize("tie_break", ["positive", "random"])
    def test_identical_classes_tie_to_the_lower_index(self, small_problem, tie_break):
        pipeline = _case_pipeline(small_problem, "record", tie_break)
        classes = pipeline.classifier.class_hypervectors_
        # Classes 1 and 3 are the same hypervector: every query ties them.
        pipeline.classifier.class_hypervectors_ = classes[[0, 1, 2, 1]].copy()
        engine = PackedInferenceEngine(pipeline)
        rows = _edge_rows(pipeline, small_problem["test_features"])
        reference = copy.deepcopy(pipeline)
        top_labels, top_scores = engine.top_k(rows, k=1)
        labels, scores = engine.top_k(rows, k=3)
        assert 1 in top_labels and 3 not in top_labels
        for row_labels, row_scores in zip(labels, scores):
            if 3 in row_labels:
                position = list(row_labels).index(3)
                assert row_labels[position - 1] == 1
                assert row_scores[position - 1] == row_scores[position]
        expected = _dense_top_k(reference, rows, 1)
        np.testing.assert_array_equal(top_labels, expected[0])
        np.testing.assert_array_equal(top_scores, expected[1])
        np.testing.assert_array_equal(labels, _dense_top_k(reference, rows, 3)[0])


class TestNonBinaryIsRefused:
    """Non-binary LeHDC scores by cosine; the engine serves XOR+popcount only."""

    @pytest.fixture(scope="class")
    def nonbinary_pipeline(self, small_problem):
        classifier = NonBinaryLeHDCClassifier(
            config=LeHDCConfig(epochs=2, batch_size=32), seed=0
        )
        return fit_pipeline(small_problem, classifier)

    def test_the_engine_refuses_it(self, nonbinary_pipeline):
        with pytest.raises(ValueError, match="NonBinaryLeHDCClassifier has no packed scoring"):
            PackedInferenceEngine(nonbinary_pipeline)

    def test_the_registry_refuses_it(self, nonbinary_pipeline):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="NonBinaryLeHDCClassifier has no packed scoring"):
            registry.register("nonbinary", nonbinary_pipeline)
        assert registry.names() == []


class TestEnsemblePackedServing:
    """The SearcHD-style ensemble serves on the packed path, not dense."""

    def test_multimodel_takes_packed_path(self, small_problem):
        pipeline = fit_pipeline(
            small_problem, MultiModelHDC(models_per_class=4, iterations=1, seed=0)
        )
        engine = PackedInferenceEngine(pipeline)
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

    def test_info(self, small_problem):
        engine = PackedInferenceEngine(
            fit_pipeline(small_problem, BaselineHDC(seed=0)), name="m"
        )
        info = engine.info()
        assert info["name"] == "m"
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

    def test_the_archive_is_opened_once(self, small_problem, tmp_path, monkeypatch):
        import repro.io
        from repro.io import read_model_metadata, save_model

        pipeline = fit_pipeline(small_problem, BaselineHDC(seed=0))
        path = save_model(tmp_path / "m.npz", pipeline, strategy_name="baseline")
        opened = []
        load = np.load

        def counted(*args, **kwargs):
            opened.append(args[0].name)
            return load(*args, **kwargs)

        monkeypatch.setattr(repro.io.np, "load", counted)
        engine = PackedInferenceEngine.from_file(path)
        assert opened == [str(path)]
        assert engine.metadata == read_model_metadata(path)


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
