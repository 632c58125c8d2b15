"""Unit tests for repro.hdc.hypervector."""

import numpy as np
import pytest

from reference import reference_sign_with_ties
from repro.hdc.hypervector import (
    BIPOLAR_DTYPE,
    bind,
    bundle,
    dot_similarity,
    hamming_distance,
    random_hypervectors,
    sign_with_ties,
)


class TestRandomHypervectors:
    def test_shape_dtype_values(self):
        vectors = random_hypervectors(5, 200, seed=0)
        assert vectors.shape == (5, 200)
        assert vectors.dtype == BIPOLAR_DTYPE
        assert set(np.unique(vectors)) <= {-1, 1}

    def test_reproducible(self):
        np.testing.assert_array_equal(
            random_hypervectors(3, 100, seed=1), random_hypervectors(3, 100, seed=1)
        )

    def test_quasi_orthogonality(self):
        vectors = random_hypervectors(2, 10_000, seed=2)
        distance = hamming_distance(vectors[0], vectors[1])
        assert 0.45 < distance < 0.55

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            random_hypervectors(0, 10)
        with pytest.raises(ValueError):
            random_hypervectors(10, 0)


class TestSignWithTies:
    def test_positive_and_negative(self):
        result = sign_with_ties(np.array([3, -2, 5, -1]))
        np.testing.assert_array_equal(result, [1, -1, 1, -1])

    def test_zero_positive_tie_break(self):
        result = sign_with_ties(np.array([0, 0, 0]), tie_break="positive")
        np.testing.assert_array_equal(result, [1, 1, 1])

    def test_zero_random_tie_break_uses_rng(self):
        values = np.zeros(1000)
        result = sign_with_ties(values, rng=np.random.default_rng(0), tie_break="random")
        # Random ties should produce a roughly balanced mix of +1 and -1.
        positives = int((result == 1).sum())
        assert 400 < positives < 600

    def test_invalid_tie_break(self):
        with pytest.raises(ValueError):
            sign_with_ties(np.array([1.0]), tie_break="up")

    def test_output_dtype(self):
        assert sign_with_ties(np.array([1.5, -0.2])).dtype == BIPOLAR_DTYPE

    @pytest.mark.parametrize("tie_break", ["random", "positive"])
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(20).integers(-3, 4, size=(256, 4000), dtype=np.int32),
            np.random.default_rng(21).integers(-2, 3, size=(5, 7)).astype(np.float64),
            np.array([0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]),
            np.array(0, dtype=np.int32),
            np.array([3, -1, 2], dtype=np.int32),
        ],
        ids=["int32-block", "float64", "float-edges", "scalar-zero", "no-zeros"],
    )
    def test_matches_reference_bytes_and_rng_state(self, values, tie_break):
        rng, reference_rng = np.random.default_rng(22), np.random.default_rng(22)
        result = sign_with_ties(values, rng=rng, tie_break=tie_break)
        expected = reference_sign_with_ties(values, rng=reference_rng, tie_break=tie_break)
        assert result.dtype == expected.dtype == BIPOLAR_DTYPE
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestBind:
    def test_self_inverse(self):
        a = random_hypervectors(1, 500, seed=3)[0]
        b = random_hypervectors(1, 500, seed=4)[0]
        np.testing.assert_array_equal(bind(bind(a, b), b), a)

    def test_commutative(self):
        a = random_hypervectors(1, 300, seed=5)[0]
        b = random_hypervectors(1, 300, seed=6)[0]
        np.testing.assert_array_equal(bind(a, b), bind(b, a))

    def test_result_quasi_orthogonal_to_inputs(self):
        a = random_hypervectors(1, 10_000, seed=7)[0]
        b = random_hypervectors(1, 10_000, seed=8)[0]
        bound = bind(a, b)
        assert 0.45 < hamming_distance(bound, a) < 0.55

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bind(np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8))


class TestBundle:
    def test_majority(self):
        rows = np.array([[1, 1, -1], [1, -1, -1], [1, 1, 1]], dtype=np.int8)
        result = bundle(rows, tie_break="positive")
        np.testing.assert_array_equal(result, [1, 1, -1])

    def test_bundle_is_similar_to_members(self):
        members = random_hypervectors(5, 10_000, seed=9)
        bundled = bundle(members, rng=np.random.default_rng(0))
        outsider = random_hypervectors(1, 10_000, seed=10)[0]
        for member in members:
            assert hamming_distance(bundled, member) < hamming_distance(bundled, outsider)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            bundle(np.ones(10, dtype=np.int8))


class TestSimilarities:
    def test_hamming_identity_and_opposite(self):
        vector = random_hypervectors(1, 256, seed=13)[0]
        assert hamming_distance(vector, vector) == 0.0
        assert hamming_distance(vector, -vector) == 1.0

    def test_dot_hamming_relation(self):
        a = random_hypervectors(1, 2048, seed=14)[0]
        b = random_hypervectors(1, 2048, seed=15)[0]
        hamming = hamming_distance(a, b)
        assert dot_similarity(a, b) == pytest.approx(2048 * (1.0 - 2.0 * hamming), abs=1e-9)

    def test_matrix_shapes(self):
        queries = random_hypervectors(4, 128, seed=18)
        classes = random_hypervectors(3, 128, seed=19)
        assert hamming_distance(queries, classes).shape == (4, 3)
        assert dot_similarity(queries, classes).shape == (4, 3)

    def test_vector_vs_matrix_shape(self):
        query = random_hypervectors(1, 128, seed=20)[0]
        classes = random_hypervectors(3, 128, seed=21)
        assert hamming_distance(query, classes).shape == (3,)
        assert dot_similarity(classes, query).shape == (3,)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hamming_distance(np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8))
        with pytest.raises(ValueError):
            dot_similarity(np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8))

    def test_argmin_hamming_equals_argmax_dot(self):
        # The core equivalence (Eq. 6) behind the whole paper.
        queries = random_hypervectors(10, 1024, seed=22)
        classes = random_hypervectors(5, 1024, seed=23)
        by_hamming = np.argmin(hamming_distance(queries, classes), axis=1)
        by_dot = np.argmax(dot_similarity(queries, classes), axis=1)
        np.testing.assert_array_equal(by_hamming, by_dot)
