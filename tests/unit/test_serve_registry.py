"""Unit tests for repro.serve.registry (a fixed set of engines, loaded at start)."""

import threading

import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.classifiers.retraining import RetrainingHDC
from repro.hdc.encoders import RecordEncoder
from repro.io import save_model
from repro.serve.engine import PackedInferenceEngine
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeApp


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
        assert registry.register("har", saved_models["baseline"]) is None
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

    def test_register_keeps_an_engine_as_given(self, saved_models):
        engine = PackedInferenceEngine.from_file(saved_models["baseline"], name="x")
        registry = ModelRegistry()
        registry.register("served", engine)
        assert registry.get("served") is engine
        (row,) = registry.list_models()
        assert row["path"] is None
        assert row["strategy"] == "baseline"  # the engine's own file metadata

    def test_names_are_sorted_and_membership_follows_them(self, saved_models):
        registry = ModelRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, saved_models["baseline"])
        assert registry.names() == ["alpha", "mid", "zeta"]
        assert "mid" in registry
        assert "other" not in registry
        assert [row["name"] for row in registry.list_models()] == registry.names()

    def test_repeated_name_rejected(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        first = registry.get("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("m", saved_models["retraining"])
        assert registry.get("m") is first
        assert registry.names() == ["m"]

    def test_missing_file_fails_at_registration(self, tmp_path):
        registry = ModelRegistry()
        with pytest.raises(OSError):
            registry.register("m", tmp_path / "missing.npz")
        assert "m" not in registry

    def test_unknown_lookups_raise(self):
        with pytest.raises(KeyError):
            ModelRegistry().get("missing")

    def test_bad_source_type_rejected(self):
        with pytest.raises(TypeError):
            ModelRegistry().register("m", 42)

    def test_list_models_shape(self, saved_models):
        registry = ModelRegistry()
        registry.register("m", saved_models["baseline"])
        (row,) = registry.list_models()
        assert row == {
            "name": "m",
            "path": str(saved_models["baseline"]),
            "strategy": "baseline",
            "dimension": 512,
            "num_classes": registry.get("m").num_classes,
            "models_per_class": None,
        }

    def test_list_models_for_a_pipeline(self, small_problem):
        # A fitted pipeline has no file: the row comes from its engine.
        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(encoder, BaselineHDC(seed=0))
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        registry = ModelRegistry()
        registry.register("inmem", pipeline)
        assert registry.list_models() == [
            {
                "name": "inmem",
                "path": None,
                "strategy": None,
                "dimension": 256,
                "num_classes": small_problem["num_classes"],
                "models_per_class": None,
            }
        ]

    def test_list_models_shows_an_ensembles_models_per_class(
        self, small_problem, tmp_path
    ):
        encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=0)
        pipeline = HDCPipeline(
            encoder, MultiModelHDC(models_per_class=4, iterations=1, seed=0)
        )
        pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
        path = save_model(tmp_path / "ensemble.npz", pipeline, strategy_name="multimodel")
        registry = ModelRegistry()
        registry.register("ens", path)
        (row,) = registry.list_models()
        assert row["strategy"] == "multimodel"
        assert row["models_per_class"] == 4


def test_concurrent_gets_return_the_registered_engines(saved_models):
    # Handler threads read the map at once, with no lock: it is filled
    # before the server starts and never written after that.
    registry = ModelRegistry()
    names = ["a", "b", "c"]
    for name in names:
        registry.register(name, saved_models["baseline"])
    engines = {name: registry.get(name) for name in names}
    assert len({id(engine) for engine in engines.values()}) == len(names)
    failures = []

    def client(offset):
        for step in range(300):
            name = names[(offset + step) % len(names)]
            if registry.get(name) is not engines[name]:
                failures.append(name)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_each_path_loads_once_inside_register(saved_models, small_problem, monkeypatch):
    # Loading is start-up work: a request never loads or reloads a model.
    loads = []
    load = PackedInferenceEngine.from_file

    def counting(cls, path, name=None, **kwargs):
        loads.append(name)
        return load(path, name=name, **kwargs)

    monkeypatch.setattr(PackedInferenceEngine, "from_file", classmethod(counting))
    registry = ModelRegistry()
    registry.register("a", saved_models["baseline"])
    registry.register("b", saved_models["retraining"])
    assert loads == ["a", "b"]
    app = ServeApp(registry)
    rows = small_problem["test_features"][:3].tolist()
    for name in ("a", "b"):
        for index in range(20):
            app.predict({"features": rows[index % 3], "model": name})
        for _ in range(5):
            app.predict({"features": rows, "model": name})
    assert loads == ["a", "b"]
