"""Unit tests for the packed training kernels (``repro.kernels.train``)."""

import numpy as np
import pytest

from repro.hdc.hypervector import dot_similarity, random_hypervectors
from repro.kernels.packed import PackedHypervectors, pack_bipolar
from repro.kernels.train import (
    PackedTrainingSet,
    apply_class_updates,
    bundle_packed,
    flip_fraction_packed,
    score_epoch,
)


class TestPackedTrainingSet:
    def test_from_dense_packs_and_keeps_int8_samples(self):
        vectors = random_hypervectors(6, 100, seed=0)
        train_set = PackedTrainingSet.from_dense(vectors)
        assert train_set.num_samples == 6
        assert train_set.dimension == 100
        assert train_set.samples.dtype == np.int8
        np.testing.assert_array_equal(
            train_set.packed.words, pack_bipolar(vectors).words
        )

    def test_accepts_float_bipolar_input(self):
        vectors = random_hypervectors(3, 70, seed=1).astype(np.float64)
        train_set = PackedTrainingSet.from_dense(vectors)
        np.testing.assert_array_equal(train_set.samples, vectors.astype(np.int8))

    @pytest.mark.parametrize("value", [0, 2])
    def test_from_dense_raises_on_non_bipolar(self, value):
        with pytest.raises(ValueError, match="bipolar|\\{\\+1, -1\\}"):
            PackedTrainingSet.from_dense(np.full((2, 8), value))

    def test_constructor_rejects_shape_mismatch(self):
        vectors = random_hypervectors(4, 64, seed=2)
        packed = pack_bipolar(vectors)
        with pytest.raises(ValueError, match="does not match"):
            PackedTrainingSet(packed, vectors[:3])


class TestBundlePacked:
    def test_matches_dense_add_at(self, rng):
        vectors = random_hypervectors(50, 200, seed=3)
        labels = rng.integers(0, 5, size=50)
        expected = np.zeros((5, 200), dtype=np.int64)
        np.add.at(expected, labels, vectors.astype(np.int64))
        result = bundle_packed(pack_bipolar(vectors), labels, 5)
        assert result.dtype == np.int64
        np.testing.assert_array_equal(result, expected)

    def test_absent_class_gets_zero_row(self):
        vectors = random_hypervectors(6, 64, seed=4)
        labels = np.array([0, 0, 3, 3, 3, 0])  # classes 1 and 2 unseen
        result = bundle_packed(pack_bipolar(vectors), labels, 4)
        np.testing.assert_array_equal(result[1], 0)
        np.testing.assert_array_equal(result[2], 0)
        expected = np.zeros((4, 64), dtype=np.int64)
        np.add.at(expected, labels, vectors.astype(np.int64))
        np.testing.assert_array_equal(result, expected)

    def test_label_validation(self):
        packed = pack_bipolar(random_hypervectors(4, 64, seed=6))
        with pytest.raises(ValueError, match="does not match"):
            bundle_packed(packed, np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="lie in"):
            bundle_packed(packed, np.array([0, 1, 2, 5]), 3)

    def test_num_classes_must_be_positive(self):
        # With no rows there is no label to catch it, so the guard must.
        empty = PackedHypervectors(np.zeros((0, 1), dtype=np.uint64), 64)
        with pytest.raises(ValueError, match=r"lie in \[0, 0\)"):
            bundle_packed(empty, np.array([], dtype=np.int64), 0)


class TestScoreEpoch:
    def test_matches_dense_scores_and_argmax(self):
        samples = random_hypervectors(30, 150, seed=7)
        classes = random_hypervectors(6, 150, seed=8)
        scores, predicted = score_epoch(pack_bipolar(samples), pack_bipolar(classes))
        dense = dot_similarity(samples, classes)
        np.testing.assert_array_equal(scores, dense)
        np.testing.assert_array_equal(predicted, np.argmax(dense, axis=1))


class TestApplyClassUpdates:
    def test_matches_ordered_sequential_application(self, rng):
        samples = random_hypervectors(20, 96, seed=9)
        class_indices = rng.integers(0, 3, size=40)
        sample_rows = rng.integers(0, 20, size=40)
        coefficients = rng.normal(size=40)
        expected = rng.normal(size=(3, 96))
        result = expected.copy()
        for position in range(40):
            expected[class_indices[position]] += (
                coefficients[position] * samples[sample_rows[position]].astype(np.float64)
            )
        apply_class_updates(result, class_indices, coefficients, samples, sample_rows)
        # Bit-identical, not just close: the kernel must reproduce the exact
        # left-to-right float accumulation order.
        np.testing.assert_array_equal(result, expected)

    def test_length_mismatch_raises(self):
        samples = random_hypervectors(4, 64, seed=10)
        with pytest.raises(ValueError, match="equal length"):
            apply_class_updates(
                np.zeros((2, 64)),
                np.array([0, 1]),
                np.array([1.0]),
                samples,
                np.array([0, 1]),
            )


class TestFlipFractionPacked:
    def test_matches_dense_mean_exactly(self):
        a = random_hypervectors(5, 100, seed=11)
        b = random_hypervectors(5, 100, seed=12)
        expected = float(np.mean(a != b))
        assert flip_fraction_packed(pack_bipolar(a), pack_bipolar(b)) == expected

    def test_zero_for_identical_inputs(self):
        packed = pack_bipolar(random_hypervectors(3, 77, seed=13))
        assert flip_fraction_packed(packed, packed) == 0.0

    def test_shape_mismatch_raises(self):
        a = pack_bipolar(random_hypervectors(2, 64, seed=14))
        b = pack_bipolar(random_hypervectors(3, 64, seed=15))
        with pytest.raises(ValueError, match="differ"):
            flip_fraction_packed(a, b)


class TestEnsembleScoreboard:
    def make_board(self, rows=10, models=4, dimension=100, seed=0):
        from repro.kernels.train import EnsembleScoreboard

        samples = random_hypervectors(rows, dimension, seed=seed)
        bank = random_hypervectors(models, dimension, seed=seed + 1)
        board = EnsembleScoreboard(
            pack_bipolar(samples), pack_bipolar(bank).words, dimension
        )
        return board, samples, bank

    def test_initial_scores_match_dense_dot(self):
        board, samples, bank = self.make_board()
        np.testing.assert_array_equal(board.scores, dot_similarity(samples, bank))
        assert board.num_models == 4

    def test_flip_bits_patches_only_that_column(self):
        board, samples, bank = self.make_board()
        before = board.scores.copy()
        bank[2, [3, 50, 99]] = -bank[2, [3, 50, 99]]
        board.flip_bits(2, np.array([3, 50, 99]))
        np.testing.assert_array_equal(board.scores, dot_similarity(samples, bank))
        untouched = [0, 1, 3]
        np.testing.assert_array_equal(board.scores[:, untouched], before[:, untouched])

    def test_word_count_mismatch_rejected(self):
        from repro.kernels.train import EnsembleScoreboard

        samples = pack_bipolar(random_hypervectors(5, 100, seed=0))
        bank = pack_bipolar(random_hypervectors(3, 200, seed=1))
        with pytest.raises(ValueError, match="does not match"):
            EnsembleScoreboard(samples, bank.words, 100)

    def test_dimension_mismatch_rejected(self):
        from repro.kernels.train import EnsembleScoreboard

        samples = pack_bipolar(random_hypervectors(5, 100, seed=0))
        bank = pack_bipolar(random_hypervectors(3, 100, seed=1))
        with pytest.raises(ValueError, match="dimension mismatch"):
            EnsembleScoreboard(samples, bank.words, 101)

    def test_out_of_range_flip_positions_rejected(self):
        board, _, _ = self.make_board(dimension=100)
        with pytest.raises(ValueError, match=r"\[0, 100\)"):
            board.flip_bits(0, np.array([100]))
