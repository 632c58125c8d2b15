"""Property-based tests (hypothesis) for the hypervector algebra.

These check the algebraic identities the whole HDC/BNN equivalence rests on,
over randomly drawn hypervectors of varying dimensions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hdc.hypervector import (
    bind,
    bundle,
    dot_similarity,
    hamming_distance,
    sign_with_ties,
)

DIMENSIONS = st.integers(min_value=4, max_value=512)


def bipolar_arrays(rows=None):
    """Strategy producing bipolar arrays: (rows, D) if rows given, else (D,)."""

    def build(dimension):
        shape = (rows, dimension) if rows is not None else (dimension,)
        return arrays(
            dtype=np.int8,
            shape=shape,
            elements=st.sampled_from([-1, 1]),
        )

    return DIMENSIONS.flatmap(build)


@st.composite
def bipolar_pair(draw):
    """Two bipolar vectors of the same (random) dimension."""
    dimension = draw(DIMENSIONS)
    element = st.sampled_from([-1, 1])
    a = draw(arrays(np.int8, (dimension,), elements=element))
    b = draw(arrays(np.int8, (dimension,), elements=element))
    return a, b


@settings(max_examples=50, deadline=None)
@given(bipolar_pair())
def test_hamming_is_symmetric_and_bounded(pair):
    a, b = pair
    forward = hamming_distance(a, b)
    backward = hamming_distance(b, a)
    assert forward == backward
    assert 0.0 <= forward <= 1.0


@settings(max_examples=50, deadline=None)
@given(bipolar_arrays())
def test_hamming_identity(vector):
    assert hamming_distance(vector, vector) == 0.0
    assert hamming_distance(vector, -vector) == 1.0


@settings(max_examples=50, deadline=None)
@given(bipolar_pair())
def test_dot_equals_dimension_times_one_minus_two_hamming(pair):
    a, b = pair
    np.testing.assert_allclose(
        dot_similarity(a, b), a.shape[0] * (1.0 - 2.0 * hamming_distance(a, b)), atol=1e-9
    )


@settings(max_examples=50, deadline=None)
@given(bipolar_pair())
def test_binding_preserves_distance(pair):
    # Binding both operands with the same vector is an isometry for Hamming.
    a, b = pair
    key = np.where(np.arange(a.shape[0]) % 2 == 0, 1, -1).astype(np.int8)
    assert hamming_distance(bind(a, key), bind(b, key)) == hamming_distance(a, b)


@settings(max_examples=50, deadline=None)
@given(bipolar_pair())
def test_bind_self_inverse(pair):
    a, b = pair
    np.testing.assert_array_equal(bind(bind(a, b), b), a)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=9).filter(lambda n: n % 2 == 1),
    st.integers(min_value=4, max_value=128),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_bundle_of_odd_count_has_no_ties(count, dimension, seed):
    rng = np.random.default_rng(seed)
    members = (2 * rng.integers(0, 2, size=(count, dimension)) - 1).astype(np.int8)
    bundled_a = bundle(members, tie_break="positive")
    bundled_b = bundle(members, rng=np.random.default_rng(0), tie_break="random")
    # An odd number of bipolar vectors can never sum to zero, so the tie-break
    # policy must not matter.
    np.testing.assert_array_equal(bundled_a, bundled_b)


@settings(max_examples=50, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 64)),
        elements=st.floats(-10, 10, allow_nan=False),
    )
)
def test_sign_with_ties_only_produces_bipolar(values):
    result = sign_with_ties(values, rng=np.random.default_rng(0))
    assert set(np.unique(result)) <= {-1, 1}
    # Non-zero entries must match the plain sign.
    nonzero = values != 0
    np.testing.assert_array_equal(result[nonzero], np.sign(values[nonzero]).astype(np.int8))
