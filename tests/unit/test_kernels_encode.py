"""Unit tests for the fused encode kernels and their encoder integration."""

import numpy as np
import pytest

from reference import dense_record_accumulate
from repro.hdc.encoders import RecordEncoder
from repro.hdc.itemmemory import LevelItemMemory, RandomItemMemory
from repro.kernels.encode import RecordAccumulator, nested_flip_levels
from repro.kernels.packed import pack_bipolar


@pytest.fixture(scope="module")
def features():
    return np.random.default_rng(3).normal(size=(40, 12))


class TestRecordAccumulator:
    def test_grouped_gemm_matches_seed_loop(self, features):
        encoder = RecordEncoder(dimension=256, num_levels=8, seed=0).fit(features)
        levels = encoder._quantizer.transform(features)
        expected = dense_record_accumulate(
            encoder.position_memory.vectors, encoder.level_memory.vectors, levels
        )
        np.testing.assert_array_equal(encoder._get_accumulator()(levels), expected)
        # The encoder feeds the accumulator the quantiser's level coordinates,
        # not the integer levels: the sums are the same.
        scaled = encoder._quantizer.scale(features)
        np.testing.assert_array_equal(encoder._get_accumulator()(scaled), expected)


class TestEncoderIntegration:
    def test_accumulator_rebuilt_after_refit(self, features):
        encoder = RecordEncoder(dimension=64, num_levels=4, seed=0).fit(features)
        first = encoder._get_accumulator()
        assert encoder._get_accumulator() is first  # cached between calls
        encoder.fit(features)
        assert encoder._get_accumulator() is not first

    @pytest.mark.parametrize("tie_break", ["positive", "random"])
    def test_encode_packed_bit_identical_to_dense_encode(self, features, tie_break):
        dense_encoder = RecordEncoder(
            dimension=200, num_levels=4, tie_break=tie_break, seed=8
        ).fit(features)
        packed_encoder = RecordEncoder(
            dimension=200, num_levels=4, tie_break=tie_break, seed=8
        ).fit(features)
        expected = pack_bipolar(dense_encoder.encode(features))
        packed = packed_encoder.encode_packed(features)
        np.testing.assert_array_equal(packed.words, expected.words)
        assert packed.dimension == expected.dimension

    def test_accumulator_returns_int32_sums_per_row(self, features):
        encoder = RecordEncoder(dimension=64, num_levels=4, seed=0).fit(features)
        raw = encoder._get_accumulator()(encoder._quantizer.scale(features))
        assert raw.shape == (features.shape[0], 64)
        assert raw.dtype == np.int32


class TestGroupedGemmParity:
    """The grouped-GEMM accumulator equals the dense Eq. 1 loop bit for bit."""

    @pytest.mark.parametrize("dimension", [64, 1000, 4000])
    @pytest.mark.parametrize("num_levels", [1, 2, 16, 33])
    @pytest.mark.parametrize("num_features", [1, 7, 64, 196, 561])
    def test_matches_dense_loop(self, num_features, num_levels, dimension):
        rng = np.random.default_rng(num_features * 1000 + num_levels * 10 + dimension)
        positions = RandomItemMemory(num_features, dimension, seed=rng).vectors
        levels = LevelItemMemory(num_levels, dimension, seed=rng).vectors
        accumulator = RecordAccumulator(positions, levels)
        indices = rng.integers(0, num_levels, size=(257, num_features))
        expected = dense_record_accumulate(positions, levels, indices)
        for batch in (1, 2, 3, 257):
            accumulated = accumulator(indices[:batch])
            assert accumulated.dtype == np.int32
            assert accumulated.flags.c_contiguous
            np.testing.assert_array_equal(accumulated, expected[:batch])


class TestNestedLevelMemory:
    def test_flip_levels_of_a_built_memory(self):
        levels = LevelItemMemory(5, 400, seed=0).vectors
        flip_levels = nested_flip_levels(levels)
        # Half the coordinates flip, spread over levels 1..4; the rest never do.
        assert np.count_nonzero(flip_levels == 5) == 200
        np.testing.assert_array_equal(np.bincount(flip_levels)[1:5], [50, 50, 50, 50])
        for level in range(5):
            flipped = levels[level] != levels[0]
            np.testing.assert_array_equal(flipped, flip_levels <= level)

    def test_coordinate_flipping_twice_is_rejected(self):
        levels = LevelItemMemory(8, 256, seed=1).vectors.copy()
        coordinate = int(np.flatnonzero(levels[2] != levels[1])[0])
        levels[5:, coordinate] = -levels[5:, coordinate]
        with pytest.raises(ValueError, match="not nested"):
            nested_flip_levels(levels)
        positions = RandomItemMemory(4, 256, seed=2).vectors
        with pytest.raises(ValueError, match="not nested"):
            RecordAccumulator(positions, levels)

    def test_non_negating_flip_is_rejected(self):
        levels = LevelItemMemory(4, 64, seed=3).vectors.copy()
        levels[3, 0] = 0
        with pytest.raises(ValueError, match="not nested"):
            nested_flip_levels(levels)

    def test_too_many_features_for_exact_float32_sums(self):
        # Zero pages: the array is never touched before the check raises.
        positions = np.zeros((2**24, 1), dtype=np.int8)
        with pytest.raises(ValueError, match="exactly"):
            RecordAccumulator(positions, np.ones((2, 1), dtype=np.int8))

    def test_table_is_a_fraction_of_the_bind_lut(self):
        """The grouped table holds N x D/2 floats, not an N x L x D bind LUT."""
        num_features, num_levels, dimension = 196, 16, 4000
        positions = RandomItemMemory(num_features, dimension, seed=4).vectors
        levels = LevelItemMemory(num_levels, dimension, seed=5).vectors
        accumulator = RecordAccumulator(positions, levels)
        slots = (num_levels - 1) * 134 + 3  # 2000 flips, <= 134 per level
        grouped = (num_levels - 1) * num_features * 134 * 4
        # A gather index per coordinate, padded to whole words, the int32
        # base and a float32 sign threshold per slot.
        assert accumulator.table_bytes == grouped + 4032 * 8 + dimension * 4 + slots * 4
        assert accumulator.table_bytes * 7 < num_features * num_levels * dimension
