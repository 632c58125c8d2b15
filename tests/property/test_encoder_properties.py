"""Property-based tests for quantisers, item memories and encoders."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hdc.hypervector import hamming_distance
from repro.hdc.itemmemory import LevelItemMemory
from repro.hdc.quantize import UniformQuantizer


@settings(max_examples=40, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(4, 40), st.integers(1, 6)),
        elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
    ),
    st.integers(min_value=2, max_value=16),
)
def test_uniform_quantizer_levels_in_range_and_monotone(features, num_levels):
    quantizer = UniformQuantizer(num_levels)
    levels = quantizer.fit_transform(features)
    assert levels.min() >= 0
    assert levels.max() <= num_levels - 1
    # Within each feature column, larger values never get a smaller level.
    for column in range(features.shape[1]):
        order = np.argsort(features[:, column], kind="stable")
        assert np.all(np.diff(levels[order, column]) >= 0)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=256, max_value=4096),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_level_memory_distance_monotone_in_level_gap(num_levels, dimension, seed):
    """The level codebook's Hamming distance grows with the level difference."""
    memory = LevelItemMemory(num_levels, dimension, seed=seed)
    distances = [
        hamming_distance(memory[0], memory[level]) for level in range(num_levels)
    ]
    assert all(b >= a - 1e-9 for a, b in zip(distances, distances[1:]))
    assert distances[-1] <= 0.5 + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_record_encoder_output_always_bipolar(num_features, num_samples, seed):
    from repro.hdc.encoders import RecordEncoder

    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 1, size=(num_samples, num_features))
    encoder = RecordEncoder(dimension=256, num_levels=4, seed=seed)
    encoded = encoder.fit_encode(features)
    assert encoded.shape == (num_samples, 256)
    assert set(np.unique(encoded)) <= {-1, 1}


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_record_encoder_identical_samples_identical_codes(seed):
    from repro.hdc.encoders import RecordEncoder

    rng = np.random.default_rng(seed)
    row = rng.uniform(0, 1, size=(1, 8))
    features = np.vstack([row, row, rng.uniform(0, 1, size=(3, 8))])
    encoder = RecordEncoder(dimension=512, num_levels=8, tie_break="positive", seed=seed)
    encoded = encoder.fit_encode(features)
    np.testing.assert_array_equal(encoded[0], encoded[1])
