"""Unit tests for the request-level prediction cache and payload validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import RecordEncoder
from repro.serve import ModelRegistry, PackedInferenceEngine, ServeApp
from repro.serve.server import RequestError, _PredictionCache


class TestPredictionCache:
    def test_lru_eviction_order(self):
        cache = _PredictionCache(max_entries=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refreshes 'a'
        cache.put(("c",), 3)  # evicts 'b', the least recently used
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1
        assert cache.get(("c",)) == 3
        assert len(cache) == 2

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            _PredictionCache(0)


@pytest.fixture()
def app(small_problem):
    encoder = RecordEncoder(dimension=256, num_levels=8, tie_break="positive", seed=2)
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=2))
    pipeline.fit(small_problem["train_features"], small_problem["train_labels"])
    registry = ModelRegistry()
    registry.register("m", PackedInferenceEngine(pipeline, name="m"))
    app = ServeApp(registry, cache_size=8)
    yield app, pipeline, small_problem["test_features"]
    app.close()


class TestServeCache:
    def test_repeat_payload_hits_cache(self, app):
        serve_app, _, queries = app
        payload = {"features": queries[0].tolist()}
        first = serve_app.predict(payload)
        second = serve_app.predict(payload)
        assert "cached" not in first
        assert second["cached"] is True
        assert second["labels"] == first["labels"]
        assert second["scores"] == first["scores"]
        cache = serve_app.metrics_snapshot()["models"]["m"]["cache"]
        assert cache == {"hits": 1, "misses": 1, "hit_rate": 0.5}

    def test_top_k_is_part_of_the_key(self, app):
        serve_app, _, queries = app
        row = queries[0].tolist()
        serve_app.predict({"features": row, "top_k": 1})
        response = serve_app.predict({"features": row, "top_k": 2})
        assert "cached" not in response
        assert len(response["top_k_labels"][0]) == 2

    def test_batch_payloads_are_cached_too(self, app):
        serve_app, _, queries = app
        payload = {"features": queries[:4].tolist()}
        first = serve_app.predict(payload)
        second = serve_app.predict(payload)
        assert second["cached"] is True
        assert second["labels"] == first["labels"]

    def test_promote_invalidates_via_version_key(self, app, small_problem):
        serve_app, pipeline, queries = app
        payload = {"features": queries[0].tolist()}
        serve_app.predict(payload)
        assert serve_app.predict(payload)["cached"] is True
        # Register + promote a second version: same payload must re-run.
        serve_app.registry.register("m", PackedInferenceEngine(pipeline, name="m"))
        response = serve_app.predict(payload)
        assert "cached" not in response
        cache = serve_app.metrics_snapshot()["models"]["m"]["cache"]
        assert cache["misses"] == 2

    def test_metrics_snapshot_reports_cache_occupancy(self, app):
        serve_app, _, queries = app
        serve_app.predict({"features": queries[0].tolist()})
        snapshot = serve_app.metrics_snapshot()
        assert snapshot["prediction_cache"] == {"entries": 1, "max_entries": 8}

    def test_cache_disabled_records_no_counters(self, small_problem, app):
        _, pipeline, queries = app
        registry = ModelRegistry()
        registry.register("m", PackedInferenceEngine(pipeline, name="m"))
        uncached = ServeApp(registry, cache_size=0)
        try:
            payload = {"features": queries[0].tolist()}
            uncached.predict(payload)
            response = uncached.predict(payload)
            assert "cached" not in response
            cache = uncached.metrics_snapshot()["models"]["m"]["cache"]
            assert cache == {"hits": 0, "misses": 0, "hit_rate": 0.0}
            assert "prediction_cache" not in uncached.metrics_snapshot()
        finally:
            uncached.close()


class TestPayloadValidation:
    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf")],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_features_are_a_clean_400(self, app, bad):
        serve_app, _, queries = app
        payload = {"features": [bad] + queries[0].tolist()[1:]}
        with pytest.raises(RequestError) as excinfo:
            serve_app.predict(payload)
        assert excinfo.value.status == 400
        assert "finite" in str(excinfo.value)

    def test_ragged_rows_are_a_clean_400(self, app):
        serve_app, _, _ = app
        with pytest.raises(RequestError) as excinfo:
            serve_app.predict({"features": [[1.0, 2.0], [3.0]]})
        assert excinfo.value.status == 400
        assert "rectangular" in str(excinfo.value)

    def test_non_numeric_features_are_a_clean_400(self, app):
        serve_app, _, _ = app
        with pytest.raises(RequestError) as excinfo:
            serve_app.predict({"features": ["a", "b"]})
        assert excinfo.value.status == 400

    def test_3d_features_rejected(self, app):
        serve_app, _, _ = app
        with pytest.raises(RequestError) as excinfo:
            serve_app.predict({"features": np.zeros((2, 2, 2)).tolist()})
        assert excinfo.value.status == 400
        assert "1-D or 2-D" in str(excinfo.value)
