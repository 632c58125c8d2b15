"""Bipolar hypervector algebra.

All hypervectors in this library are dense NumPy arrays with entries in
``{+1, -1}`` stored as ``int8`` (the paper's "bipolar" convention,
Sec. 2).  Batched variants operate on 2-D arrays whose rows are hypervectors.

The key operations are:

* :func:`bind` - element-wise (Hadamard) product, used to pair a feature
  position hypervector with its value hypervector in Eq. 1;
* :func:`bundle` - element-wise summation followed by :func:`sign_with_ties`,
  used both inside the record encoder (Eq. 1) and in centroid training
  (Eq. 2);
* :func:`hamming_distance` / :func:`dot_similarity` - equivalent similarity
  measures related by ``dot = D * (1 - 2*hamming)`` (Sec. 3.1; the cosine of
  Eq. 5 is ``dot / D``), which is the identity the BNN equivalence rests on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng

BIPOLAR_DTYPE = np.int8


def random_hypervectors(
    count: int, dimension: int, seed: SeedLike = None
) -> np.ndarray:
    """Draw *count* i.i.d. uniform bipolar hypervectors of length *dimension*.

    Independent uniform draws are quasi-orthogonal in high dimension: the
    expected normalised Hamming distance between any two of them is 0.5,
    which is exactly the property the paper requires of feature-position
    hypervectors.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    rng = ensure_rng(seed)
    bits = rng.integers(0, 2, size=(count, dimension), dtype=np.int8)
    return (2 * bits - 1).astype(BIPOLAR_DTYPE)


def sign_with_ties(
    values: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    tie_break: str = "random",
) -> np.ndarray:
    """Binarise *values* to ``{+1, -1}`` with explicit handling of zeros.

    The paper assumes ``sgn(0)`` is randomly assigned +1 or -1 (Sec. 2.1).
    ``tie_break`` selects that behaviour (``"random"``, the default) or a
    deterministic assignment to +1 (``"positive"``), which is useful in tests
    and in hardware implementations that avoid an RNG.
    """
    if tie_break not in ("random", "positive"):
        raise ValueError(f"tie_break must be 'random' or 'positive', got {tie_break!r}")
    values = np.asarray(values)
    # One int8 pass: the comparison's bool bytes are 0/1, so ``2 * b - 1``
    # maps them to -1/+1 in place.  "positive" resolves ties in the compare.
    result = np.asarray(values > 0 if tie_break == "random" else values >= 0)
    result = result.view(BIPOLAR_DTYPE)
    result *= 2
    result -= 1
    if tie_break == "random":
        zeros = values == 0
        if np.any(zeros):
            rng = ensure_rng(rng)
            result[zeros] = (
                2 * rng.integers(0, 2, size=int(zeros.sum()), dtype=np.int8) - 1
            )
    return result


def bind(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bind hypervectors by the Hadamard (element-wise) product.

    Binding is its own inverse for bipolar vectors (``bind(bind(a, b), b) == a``)
    and produces a vector quasi-orthogonal to both inputs.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )
    return (a.astype(np.int8) * b.astype(np.int8)).astype(BIPOLAR_DTYPE)


def bundle(
    hypervectors: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    tie_break: str = "random",
) -> np.ndarray:
    """Bundle (superpose) hypervectors by summation + sign (majority rule).

    ``hypervectors`` is a 2-D array whose rows are the vectors to combine.
    The result is the binarised element-wise sum, i.e. Eq. 1's outer ``sgn``
    and Eq. 2's class-centroid rule.
    """
    hypervectors = np.asarray(hypervectors)
    if hypervectors.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {hypervectors.shape}")
    accumulated = hypervectors.astype(np.int64).sum(axis=0)
    return sign_with_ties(accumulated, rng=rng, tie_break=tie_break)


def hamming_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalised Hamming distance between bipolar hypervectors.

    Supports broadcasting over leading axes: ``a`` of shape ``(n, D)`` against
    ``b`` of shape ``(k, D)`` yields an ``(n, k)`` distance matrix, which is
    what the HDC inference step (Eq. 4) consumes.
    """
    a = np.asarray(a, dtype=np.int32)
    b = np.asarray(b, dtype=np.int32)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    dimension = a.shape[-1]
    dots = _pairwise_dot(a, b)
    # For bipolar vectors: dot = (#equal - #different) and #equal + #different = D,
    # hence #different = (D - dot) / 2.
    return (dimension - dots) / (2.0 * dimension)


def dot_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer dot-product similarity ``En(x)^T c_k`` (Eq. 6).

    This is the quantity a single-layer BNN computes at each output neuron;
    argmax over it is equivalent to argmin over Hamming distance.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"dimension mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    return _pairwise_dot(a, b)


def _pairwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products with shape promotion: (n,D)x(k,D) -> (n,k); 1-D inputs collapse."""
    a2 = np.atleast_2d(a)
    b2 = np.atleast_2d(b)
    result = a2 @ b2.T
    return _match_output_shape(result, a, b)


def _match_output_shape(result: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a_was_1d = np.asarray(a).ndim == 1
    b_was_1d = np.asarray(b).ndim == 1
    if a_was_1d and b_was_1d:
        return result[0, 0]
    if a_was_1d:
        return result[0]
    if b_was_1d:
        return result[:, 0]
    return result
