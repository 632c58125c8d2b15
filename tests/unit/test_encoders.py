"""Unit tests for repro.hdc.encoders."""

import numpy as np
import pytest

from repro.hdc.encoders import RecordEncoder
from repro.hdc.hypervector import hamming_distance


@pytest.fixture(scope="module")
def features():
    rng = np.random.default_rng(0)
    return rng.uniform(0, 1, size=(60, 12))


class TestRecordEncoder:
    def test_output_shape_and_values(self, features):
        encoder = RecordEncoder(dimension=512, num_levels=8, seed=0)
        encoded = encoder.fit(features).encode(features)
        assert encoded.shape == (60, 512)
        assert set(np.unique(encoded)) <= {-1, 1}

    def test_encode_before_fit_raises(self, features):
        with pytest.raises(RuntimeError):
            RecordEncoder(dimension=128, seed=0).encode(features)

    def test_deterministic_with_positive_tie_break(self, features):
        encoder = RecordEncoder(
            dimension=256, num_levels=8, tie_break="positive", seed=3
        )
        encoder.fit(features)
        np.testing.assert_array_equal(encoder.encode(features), encoder.encode(features))

    def test_similar_inputs_have_similar_codes(self):
        encoder = RecordEncoder(dimension=4096, num_levels=16, seed=1)
        base = np.random.default_rng(2).uniform(0, 1, size=(1, 10))
        near = base + 0.02
        far = 1.0 - base
        encoder.fit(np.vstack([base, near, far, np.zeros((1, 10)), np.ones((1, 10))]))
        encoded = encoder.encode(np.vstack([base, near, far]))
        assert hamming_distance(encoded[0], encoded[1]) < hamming_distance(
            encoded[0], encoded[2]
        )

    def test_batching_does_not_change_result(self, features):
        encoder = RecordEncoder(
            dimension=256, num_levels=8, tie_break="positive", seed=5
        )
        encoder.fit(features)
        np.testing.assert_array_equal(
            encoder.encode(features, batch_size=7),
            encoder.encode(features, batch_size=60),
        )

    def test_feature_count_mismatch(self, features):
        encoder = RecordEncoder(dimension=128, seed=6)
        encoder.fit(features)
        with pytest.raises(ValueError):
            encoder.encode(np.zeros((3, 5)))

    def test_invalid_options(self):
        with pytest.raises(ValueError):
            RecordEncoder(tie_break="always")
        with pytest.raises(ValueError):
            RecordEncoder(dimension=0)
