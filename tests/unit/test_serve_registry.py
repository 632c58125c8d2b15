"""Unit tests for repro.serve.registry (versioning, hot-swap, LRU residency)."""

import threading

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.serve.engine import PackedInferenceEngine
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def saved_models(small_problem, tmp_path_factory):
    """Two trained variants of the same problem saved to disk."""
    directory = tmp_path_factory.mktemp("models")
    paths = {}
    for name, classifier in (
        ("baseline", BaselineHDC(seed=0)),
        ("retraining", RetrainingHDC(iterations=3, seed=0)),
    ):
        encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(encoder, classifier)
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        paths[name] = save_model(
            directory / f"{name}.npz", pipeline, strategy_name=name
        )
    return paths


class TestRegisterAndResolve:
    def test_register_path_and_get(self, saved_models, small_problem):
        registry = ModelRegistry()
        version = registry.register("har", saved_models["baseline"])
        assert version == 1
        engine = registry.get("har")
        assert isinstance(engine, PackedInferenceEngine)
        predictions = engine.predict(small_problem["test_features"])
        assert predictions.shape == (small_problem["test_features"].shape[0],)

    def test_register_pipeline_directly(self, small_problem):
        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        registry = ModelRegistry()
        registry.register("inmem", pipeline)
        assert registry.get("inmem").predict(small_problem["test_features"]) is not None

    def test_versions_auto_increment(self, saved_models):
        registry = ModelRegistry()
        assert registry.register("m", saved_models["baseline"]) == 1
        assert registry.register("m", saved_models["retraining"]) == 2
        assert registry.register("m", saved_models["baseline"], version=7) == 7
        assert registry.register("m", saved_models["baseline"]) == 8

    def test_duplicate_version_rejected(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"], version=1)
        with pytest.raises(ValueError):
            registry.register("m", saved_models["baseline"], version=1)

    def test_unknown_lookups_raise(self, saved_models):
        registry = ModelRegistry()
        with pytest.raises(KeyError):
            registry.get("missing")
        registry.register("m", saved_models["baseline"])
        with pytest.raises(KeyError):
            registry.get("m", version=9)

    def test_bad_source_type_rejected(self):
        with pytest.raises(TypeError):
            ModelRegistry().register("m", 42)


class TestHotSwap:
    def test_register_promotes_latest_by_default(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        registry.register("m", saved_models["retraining"])
        assert registry.get("m").metadata["strategy"] == "retraining"

    def test_register_without_promote_keeps_default(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        registry.register("m", saved_models["retraining"], promote=False)
        assert registry.get("m").metadata["strategy"] == "baseline"

    def test_promote_flips_resolution(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        registry.register("m", saved_models["retraining"], promote=False)
        registry.promote("m", 2)
        assert registry.get("m").metadata["strategy"] == "retraining"

    def test_resolver_tracks_promotion(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        resolve = registry.resolver("m")
        assert resolve().metadata["strategy"] == "baseline"
        registry.register("m", saved_models["retraining"])  # auto-promotes v2
        assert resolve().metadata["strategy"] == "retraining"

    def test_evict_version_and_model(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        registry.register("m", saved_models["retraining"])
        registry.evict("m", version=2)
        # The default falls back to the highest remaining version.
        assert registry.get("m").metadata["strategy"] == "baseline"
        registry.evict("m")
        assert "m" not in registry
        with pytest.raises(KeyError):
            registry.evict("m")


class TestResidency:
    def test_lru_cap_evicts_and_reloads(self, saved_models, small_problem):
        registry = ModelRegistry(max_resident=1)
        registry.register("a", saved_models["baseline"])
        registry.register("b", saved_models["retraining"])
        engine_a = registry.get("a")
        registry.get("b")  # loading b pushes a (least recently used) out
        listing = {row["name"]: row["resident"] for row in registry.list_models()}
        assert listing == {"a": False, "b": True}
        # Access transparently reloads a from its path.
        reloaded = registry.get("a")
        assert reloaded is not engine_a
        np.testing.assert_array_equal(
            reloaded.predict(small_problem["test_features"]),
            engine_a.predict(small_problem["test_features"]),
        )

    def test_engine_being_installed_is_never_evicted(self, saved_models, monkeypatch):
        """A load that finishes while another model's load is in flight must
        not evict the engine that is being installed: ``get`` returns it."""
        registry = ModelRegistry(max_resident=1)
        registry.register("a", saved_models["baseline"])
        registry.register("b", saved_models["retraining"])
        load = PackedInferenceEngine.from_file

        def load_while_b_is_fetched(path, name=None):
            engine = load(path, name=name)
            if name.startswith("a@"):
                # Another request fetches (and loads) b while a is loading,
                # so b's LRU stamp is newer than a's.
                registry.get("b")
            return engine

        monkeypatch.setattr(
            PackedInferenceEngine, "from_file", staticmethod(load_while_b_is_fetched)
        )
        engine = registry.get("a")
        assert isinstance(engine, PackedInferenceEngine)
        resident = {row["name"]: row["resident"] for row in registry.list_models()}
        assert resident == {"a": True, "b": False}

    @pytest.mark.parametrize("cap", [1, 2])
    def test_concurrent_gets_never_return_none(self, saved_models, cap):
        """Loads racing other loads under a tight cap still hand every caller
        an engine, and the cap holds once the storm is over."""
        registry = ModelRegistry(max_resident=cap)
        names = ["a", "b", "c"]
        for name in names:
            registry.register(name, saved_models["baseline"])
        failures = []

        def client(offset):
            for step in range(12):
                name = names[(offset + step) % len(names)]
                engine = registry.get(name)
                if not isinstance(engine, PackedInferenceEngine):
                    failures.append((name, engine))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        resident = [row for row in registry.list_models() if row["resident"]]
        assert len(resident) <= cap

    def test_versions_count_against_the_cap(self, saved_models):
        registry = ModelRegistry(max_resident=1)
        registry.register("m", saved_models["baseline"])
        registry.register("m", saved_models["retraining"])
        registry.get("m", version=1)
        registry.get("m", version=2)
        resident = {
            row["version"]: row["resident"] for row in registry.list_models()
        }
        assert resident == {1: False, 2: True}

    def test_model_evicted_while_loading_raises_key_error(
        self, saved_models, monkeypatch
    ):
        registry = ModelRegistry()
        registry.register("a", saved_models["baseline"])
        load = PackedInferenceEngine.from_file

        def load_then_evict(path, name=None):
            engine = load(path, name=name)
            registry.evict("a")  # an operator removes the model mid-load
            return engine

        monkeypatch.setattr(
            PackedInferenceEngine, "from_file", staticmethod(load_then_evict)
        )
        with pytest.raises(KeyError):
            registry.get("a")
        assert "a" not in registry

    def test_pinned_engines_never_evicted(self, saved_models, small_problem):
        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        registry = ModelRegistry(max_resident=1)
        registry.register("pinned", pipeline)
        registry.register("a", saved_models["baseline"])
        registry.register("b", saved_models["retraining"])
        registry.get("a")
        registry.get("b")
        resident = {row["name"]: row["resident"] for row in registry.list_models()}
        assert resident["pinned"] is True

    def test_list_models_shape(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        (row,) = registry.list_models()
        assert row["name"] == "m"
        assert row["version"] == 1
        assert row["default"] is True
        assert row["strategy"] == "baseline"
        assert row["dimension"] == 512
