"""Unit tests for repro.io (model persistence)."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.hdc.encoders import NGramEncoder, RecordEncoder
from repro.io import load_model, read_model_metadata, save_model


def make_fitted_pipeline(small_problem, classifier=None, encoder=None):
    encoder = encoder or RecordEncoder(
        dimension=512, num_levels=8, tie_break="positive", seed=0
    )
    classifier = classifier or BaselineHDC(seed=0)
    pipeline = HDCPipeline(encoder, classifier)
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    return pipeline


class TestSaveLoadRoundtrip:
    def test_predictions_identical_after_reload(self, small_problem, tmp_path):
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "model.npz", pipeline, strategy_name="baseline")
        reloaded = load_model(path)
        original = pipeline.predict(small_problem["test_features"])
        restored = reloaded.predict(small_problem["test_features"])
        np.testing.assert_array_equal(original, restored)

    def test_lehdc_model_roundtrip(self, small_problem, tmp_path):
        classifier = LeHDCClassifier(
            config=LeHDCConfig(epochs=5, batch_size=32, dropout_rate=0.1, weight_decay=0.01),
            seed=1,
        )
        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=1)
        pipeline = make_fitted_pipeline(small_problem, classifier=classifier, encoder=encoder)
        path = save_model(tmp_path / "lehdc", pipeline, strategy_name="lehdc")
        assert str(path).endswith(".npz")
        reloaded = load_model(path)
        np.testing.assert_array_equal(
            reloaded.class_hypervectors_, pipeline.class_hypervectors_
        )

    def test_ngram_encoder_roundtrip(self, small_problem, tmp_path):
        encoder = NGramEncoder(
            dimension=256, num_levels=8, ngram=3, tie_break="positive", seed=2
        )
        pipeline = make_fitted_pipeline(small_problem, encoder=encoder)
        path = save_model(tmp_path / "ngram.npz", pipeline)
        reloaded = load_model(path)
        np.testing.assert_array_equal(
            reloaded.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )

    def test_quantile_quantizer_roundtrip(self, small_problem, tmp_path):
        encoder = RecordEncoder(
            dimension=256, num_levels=8, quantizer="quantile", tie_break="positive", seed=3
        )
        pipeline = make_fitted_pipeline(small_problem, encoder=encoder)
        path = save_model(tmp_path / "quantile.npz", pipeline)
        reloaded = load_model(path)
        np.testing.assert_array_equal(
            reloaded.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )

    def test_metadata_recorded(self, small_problem, tmp_path):
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(
            tmp_path / "meta.npz",
            pipeline,
            strategy_name="baseline",
            extra_metadata={"note": "unit-test"},
        )
        # The loaded pipeline reuses the stored dimension / class count.
        reloaded = load_model(path)
        assert reloaded.encoder.dimension == 512
        assert reloaded.classifier.num_classes_ == small_problem["num_classes"]


def _rewrite_metadata(path, destination, **updates):
    """Copy a saved model, mutating its metadata block."""
    import json

    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    metadata = json.loads(bytes(arrays["metadata_json"].tobytes()).decode("utf-8"))
    metadata.update(updates)
    arrays["metadata_json"] = np.frombuffer(
        json.dumps(metadata).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(destination, **arrays)
    return destination


class TestMetadataVerification:
    def test_package_version_recorded(self, small_problem, tmp_path):
        from repro import __version__

        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "m.npz", pipeline)
        assert read_model_metadata(path)["package_version"] == __version__

    def test_read_model_metadata_cheap_fields(self, small_problem, tmp_path):
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "m.npz", pipeline, strategy_name="baseline")
        metadata = read_model_metadata(path)
        assert metadata["strategy"] == "baseline"
        assert metadata["dimension"] == 512
        assert metadata["encoder_kind"] == "record"

    def test_incompatible_package_version_rejected(self, small_problem, tmp_path):
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "m.npz", pipeline)
        bad = _rewrite_metadata(path, tmp_path / "bad.npz", package_version="99.0.0")
        with pytest.raises(ValueError, match="99.0.0"):
            load_model(bad)
        with pytest.raises(ValueError, match="99.0.0"):
            read_model_metadata(bad)

    def test_legacy_archive_without_package_version_loads(
        self, small_problem, tmp_path
    ):
        import json

        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "m.npz", pipeline)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        metadata = json.loads(bytes(arrays["metadata_json"].tobytes()).decode("utf-8"))
        del metadata["package_version"]
        arrays["metadata_json"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        )
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **arrays)
        reloaded = load_model(legacy)
        np.testing.assert_array_equal(
            reloaded.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )

    def test_unknown_encoder_kind_rejected(self, small_problem, tmp_path):
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "m.npz", pipeline)
        bad = _rewrite_metadata(path, tmp_path / "bad_enc.npz", encoder_kind="fourier")
        with pytest.raises(ValueError, match="fourier"):
            load_model(bad)


class TestSaveLoadErrors:
    def test_save_unfitted_rejected(self, tmp_path):
        pipeline = HDCPipeline(RecordEncoder(dimension=128, seed=0), BaselineHDC(seed=0))
        with pytest.raises(ValueError):
            save_model(tmp_path / "x.npz", pipeline)

    def test_loaded_model_is_inference_only(self, small_problem, tmp_path):
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "frozen.npz", pipeline)
        reloaded = load_model(path)
        with pytest.raises(RuntimeError):
            reloaded.classifier.fit(
                np.ones((4, 512), dtype=np.int8), np.array([0, 1, 2, 3])
            )

    def test_bad_format_version(self, small_problem, tmp_path):
        import json

        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "versioned.npz", pipeline)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        metadata = json.loads(bytes(arrays["metadata_json"].tobytes()).decode("utf-8"))
        metadata["format_version"] = 999
        arrays["metadata_json"] = np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        )
        bad_path = tmp_path / "bad.npz"
        np.savez_compressed(bad_path, **arrays)
        with pytest.raises(ValueError):
            load_model(bad_path)


def _flip_a_coordinate_twice(path, destination):
    """Copy a saved model with one level-memory coordinate flipped back."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    levels = arrays["level_vectors"].copy()
    coordinate = int(np.flatnonzero(levels[1] != levels[0])[0])
    levels[3:, coordinate] = levels[0, coordinate]  # flipped at 1, back at 3
    arrays["level_vectors"] = levels
    np.savez_compressed(destination, **arrays)
    return destination


class TestTamperedLevelMemory:
    """A level memory that is not nested is rejected when the file is loaded."""

    @pytest.fixture
    def tampered(self, small_problem, tmp_path):
        path = save_model(tmp_path / "model.npz", make_fitted_pipeline(small_problem))
        return _flip_a_coordinate_twice(path, tmp_path / "tampered.npz")

    def test_load_model_rejects(self, tampered):
        with pytest.raises(ValueError, match="not nested"):
            load_model(tampered)

    def test_read_model_metadata_rejects(self, tampered):
        with pytest.raises(ValueError, match="not nested"):
            read_model_metadata(tampered)

    def test_registry_rejects_at_registration(self, tampered):
        from repro.serve.registry import ModelRegistry

        with pytest.raises(ValueError, match="not nested"):
            ModelRegistry().register("tampered", tampered)

    def test_serve_refuses_to_start(self, tampered, capsys, monkeypatch):
        import repro.serve.server
        from repro.cli import main

        started = []
        monkeypatch.setattr(
            repro.serve.server, "run_server", lambda *args, **kwargs: started.append(1)
        )
        assert main(["serve", "--model", f"tampered={tampered}", "--port", "0"]) == 1
        assert "not nested" in capsys.readouterr().err
        assert started == []

    def test_ngram_model_needs_no_nesting(self, small_problem, tmp_path):
        """Only the record encoder relies on nested levels."""
        encoder = NGramEncoder(
            dimension=256, num_levels=8, ngram=3, tie_break="positive", seed=2
        )
        path = save_model(
            tmp_path / "ngram.npz", make_fitted_pipeline(small_problem, encoder=encoder)
        )
        tampered = _flip_a_coordinate_twice(path, tmp_path / "ngram-tampered.npz")
        reloaded = load_model(tampered)
        assert reloaded.predict(small_problem["test_features"]).shape == (80,)


class TestEnsembleRoundtrip:
    def fit_ensemble_pipeline(self, small_problem):
        from repro.classifiers.multimodel import MultiModelHDC

        return make_fitted_pipeline(
            small_problem,
            classifier=MultiModelHDC(models_per_class=4, iterations=1, seed=0),
        )

    def test_model_bank_and_predictions_survive_reload(self, small_problem, tmp_path):
        pipeline = self.fit_ensemble_pipeline(small_problem)
        path = save_model(tmp_path / "ens.npz", pipeline, strategy_name="multimodel")
        reloaded = load_model(path)
        np.testing.assert_array_equal(
            reloaded.classifier.model_hypervectors_,
            pipeline.classifier.model_hypervectors_,
        )
        np.testing.assert_array_equal(
            reloaded.predict(small_problem["test_features"]),
            pipeline.predict(small_problem["test_features"]),
        )
        # The restored classifier keeps the packed max-over-ensemble rule.
        assert reloaded.classifier.supports_packed_scoring()

    def test_models_per_class_metadata(self, small_problem, tmp_path):
        pipeline = self.fit_ensemble_pipeline(small_problem)
        path = save_model(tmp_path / "ens.npz", pipeline, strategy_name="multimodel")
        assert read_model_metadata(path)["models_per_class"] == 4
        single = make_fitted_pipeline(small_problem)
        single_path = save_model(tmp_path / "one.npz", single, strategy_name="baseline")
        assert read_model_metadata(single_path)["models_per_class"] is None

    def test_ensemble_archives_use_the_gated_format_version(
        self, small_problem, tmp_path
    ):
        """Bank-carrying archives are stamped v2 so pre-ensemble readers
        reject them outright instead of silently serving majority vectors;
        plain models keep v1 and stay readable by older builds."""
        from repro.io import ENSEMBLE_FORMAT_VERSION, FORMAT_VERSION

        ensemble_path = save_model(
            tmp_path / "ens.npz",
            self.fit_ensemble_pipeline(small_problem),
            strategy_name="multimodel",
        )
        assert (
            read_model_metadata(ensemble_path)["format_version"]
            == ENSEMBLE_FORMAT_VERSION
        )
        plain_path = save_model(
            tmp_path / "one.npz",
            make_fitted_pipeline(small_problem),
            strategy_name="baseline",
        )
        assert read_model_metadata(plain_path)["format_version"] == FORMAT_VERSION
        # Both versions load in this build.
        load_model(ensemble_path)
        load_model(plain_path)

    def test_loaded_ensemble_is_inference_only(self, small_problem, tmp_path):
        pipeline = self.fit_ensemble_pipeline(small_problem)
        path = save_model(tmp_path / "ens.npz", pipeline, strategy_name="multimodel")
        reloaded = load_model(path)
        with pytest.raises(RuntimeError, match="inference-only"):
            reloaded.classifier.fit(
                np.ones((4, 512), dtype=np.int8), np.array([0, 1, 0, 1])
            )
