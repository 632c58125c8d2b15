"""Unit tests for repro.io (model persistence)."""

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.hdc.encoders import RecordEncoder
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


def _rewrite_metadata(path, destination, drop=(), **updates):
    """Copy a saved model, mutating its metadata block."""
    import json

    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    metadata = json.loads(bytes(arrays["metadata_json"].tobytes()).decode("utf-8"))
    metadata.update(updates)
    for key in drop:
        del metadata[key]
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
        # Both kinds are still written, for builds that read other kinds.
        assert (metadata["encoder_kind"], metadata["quantizer_kind"]) == ("record", "uniform")
        assert "ngram" not in metadata

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

    @pytest.mark.parametrize(
        "field",
        [
            "encoder_kind",
            "dimension",
            "num_levels",
            "num_features",
            "quantizer_kind",
            "tie_break",
            "num_classes",
        ],
    )
    def test_missing_field_rejected(self, small_problem, tmp_path, field):
        # Every field the loader reads is checked with the archive open, so
        # a file without one is a ValueError naming it, not a KeyError from
        # rebuilding the encoder.
        pipeline = make_fitted_pipeline(small_problem)
        path = save_model(tmp_path / "m.npz", pipeline)
        bad = _rewrite_metadata(path, tmp_path / "bad.npz", drop=[field])
        with pytest.raises(ValueError, match=f"bad.npz: metadata lacks {field}"):
            load_model(bad)
        with pytest.raises(ValueError, match=f"bad.npz: metadata lacks {field}"):
            read_model_metadata(bad)

    def test_metadata_must_be_a_json_object(self, small_problem, tmp_path):
        path = save_model(tmp_path / "m.npz", make_fitted_pipeline(small_problem))
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        arrays["metadata_json"] = np.frombuffer(b"[1, 2]", dtype=np.uint8)
        bad = tmp_path / "bad.npz"
        np.savez_compressed(bad, **arrays)
        with pytest.raises(ValueError, match="bad.npz: metadata is not a JSON object"):
            load_model(bad)


class TestSaveLoadErrors:
    def test_save_unfitted_rejected(self, tmp_path):
        pipeline = HDCPipeline(RecordEncoder(dimension=128, seed=0), BaselineHDC(seed=0))
        with pytest.raises(ValueError):
            save_model(tmp_path / "x.npz", pipeline)

    def test_a_classifier_without_packed_scoring_is_not_saved(self, small_problem, tmp_path):
        # A loaded model scores its binary class hypervectors by Hamming
        # distance; non-binary LeHDC scores by cosine over real weights, so a
        # file could not hold the model that was trained.
        pipeline = make_fitted_pipeline(
            small_problem,
            classifier=NonBinaryLeHDCClassifier(
                config=LeHDCConfig(epochs=2, batch_size=32), seed=0
            ),
        )
        with pytest.raises(ValueError, match="NonBinaryLeHDCClassifier cannot be saved"):
            save_model(tmp_path / "nb.npz", pipeline)
        assert list(tmp_path.iterdir()) == []

    def test_a_text_file_is_not_an_archive(self, tmp_path):
        # NumPy's own error for a file that is neither a zip nor an .npy
        # array offers to unpickle it; a loader that refused it must not.
        path = tmp_path / "notes.npz"
        path.write_text("not a model\n")
        for read in (load_model, read_model_metadata):
            with pytest.raises(ValueError, match="notes.npz: not an .npz archive") as info:
                read(path)
            assert "pickle" not in str(info.value)

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


@pytest.fixture(scope="module")
def saved_for_reading(small_problem, tmp_path_factory):
    return save_model(
        tmp_path_factory.mktemp("io-close") / "m.npz", make_fitted_pipeline(small_problem)
    )


class TestArchiveIsClosed:
    """The loader opens the model file itself and closes it on every path,
    whether the file loads or is refused (NumPy left a truncated archive's
    file open when it opened the file itself)."""

    @staticmethod
    def _write(kind, saved, path):
        """Write a model file of *kind* at *path* and return the message
        the loaders refuse it with (``None`` for a file that loads)."""
        if kind == "valid":
            path.write_bytes(saved.read_bytes())
            return None
        if kind == "empty":
            path.write_bytes(b"")
            return "not a readable .npz archive"
        if kind == "plain-text":
            path.write_text("not a model\n")
            return "not an .npz archive"
        if kind == "truncated":
            path.write_bytes(saved.read_bytes()[:200])
            return "not a readable .npz archive"
        if kind == "single-array":
            with open(path, "wb") as handle:
                np.save(handle, np.zeros(3))
            return "a single array, not an .npz archive"
        if kind == "no-level-vectors":
            with np.load(saved) as archive:
                arrays = {k: archive[k] for k in archive.files if k != "level_vectors"}
            np.savez_compressed(path, **arrays)
            return "level_vectors is not a file in the archive"
        if kind == "bad-format-version":
            _rewrite_metadata(saved, path, format_version=999)
            return "unsupported model format version 999"
        # Kinds that an older build wrote and this one no longer reads.
        if kind == "ngram-encoder":
            _rewrite_metadata(saved, path, encoder_kind="ngram", ngram=3)
            return "encoder_kind is 'ngram'; this build reads 'record' only"
        if kind == "quantile-quantizer":
            _rewrite_metadata(saved, path, quantizer_kind="quantile")
            return "quantizer_kind is 'quantile'; this build reads 'uniform' only"
        if kind == "no-encoder-kind":
            _rewrite_metadata(saved, path, drop=["encoder_kind"])
            return "metadata lacks encoder_kind"
        assert kind == "tampered-levels"
        _flip_a_coordinate_twice(saved, path)
        return "not nested"

    @pytest.mark.parametrize("read", [load_model, read_model_metadata])
    @pytest.mark.parametrize(
        "kind",
        [
            "valid",
            "empty",
            "plain-text",
            "truncated",
            "single-array",
            "no-level-vectors",
            "bad-format-version",
            "tampered-levels",
            "ngram-encoder",
            "quantile-quantizer",
            "no-encoder-kind",
        ],
    )
    def test_the_model_file_is_closed_after_reading(
        self, saved_for_reading, tmp_path, monkeypatch, kind, read
    ):
        import repro.io

        path = tmp_path / "model.npz"
        refused = self._write(kind, saved_for_reading, path)
        opened = []

        def recording(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(repro.io, "open", recording, raising=False)
        if refused is None:
            read(path)
        else:
            with pytest.raises(ValueError, match=refused) as info:
                read(path)
            assert str(path) in str(info.value)
        assert [handle.name for handle in opened] == [str(path)]
        assert opened[0].closed

    @pytest.mark.parametrize("kind", ["ngram-encoder", "quantile-quantizer", "no-encoder-kind"])
    def test_repro_serve_refuses_it_with_one_line(
        self, saved_for_reading, tmp_path, monkeypatch, capsys, kind
    ):
        import repro.io
        import repro.serve.server
        from repro.cli import main

        path = tmp_path / "model.npz"
        refused = self._write(kind, saved_for_reading, path)
        opened = []

        def recording(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        def refuse(*args, **kwargs):
            raise AssertionError("a model that cannot load reached the server")

        monkeypatch.setattr(repro.io, "open", recording, raising=False)
        monkeypatch.setattr(repro.serve.server, "run_server", refuse)
        assert main(["serve", "--model", str(path), "--port", "0"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: cannot load model {str(path)!r}: model {path}: ")
        assert line.endswith(refused)
        assert [handle.name for handle in opened] == [str(path)]
        assert opened[0].closed

    @pytest.mark.parametrize("read", [load_model, read_model_metadata])
    def test_a_file_that_cannot_be_opened_stays_an_os_error(self, tmp_path, read):
        with pytest.raises(FileNotFoundError):
            read(tmp_path / "absent.npz")


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
