"""Shared utilities: seeded RNG management and argument validation."""

from repro.utils.rng import RngMixin, ensure_rng, spawn_rngs
from repro.utils.validation import (
    check_fitted,
    check_labels,
    check_matrix,
    check_positive_int,
    check_probability,
)

__all__ = [
    "RngMixin",
    "ensure_rng",
    "spawn_rngs",
    "check_fitted",
    "check_labels",
    "check_matrix",
    "check_positive_int",
    "check_probability",
]
