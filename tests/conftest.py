"""Shared fixtures for the test suite.

Everything here is intentionally tiny (small D, few samples) so the whole
suite stays fast; the benchmark harness is where paper-scale settings live.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import RecordEncoder
from repro.kernels.train import apply_class_updates


@pytest.fixture(scope="session")
def rng():
    """A session-wide reproducible generator for ad-hoc randomness in tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def one_sample_update():
    """Apply a retraining strategy's update rule to one misclassified sample.

    Runs the strategy's ``_epoch_updates`` over a one-sample epoch (score row
    *scores*, true class *true_label*, predicted *predicted*) and applies the
    result to the float accumulators *state* in place.
    """

    def apply(model, state, sample, true_label, predicted, scores, alpha=1.0):
        class_indices, coefficients, sample_rows = model._epoch_updates(
            np.atleast_2d(scores),
            np.array([true_label]),
            np.array([predicted]),
            np.array([0]),
            alpha,
            sample.shape[0],
        )
        apply_class_updates(state, class_indices, coefficients, sample[None], sample_rows)

    return apply


@pytest.fixture(scope="session")
def small_problem():
    """A small, clearly separable 4-class problem in raw feature space."""
    train_features, train_labels, test_features, test_labels = make_gaussian_classes(
        num_classes=4,
        num_features=24,
        train_size=240,
        test_size=80,
        class_sep=3.0,
        clusters_per_class=1,
        noise_std=0.8,
        seed=7,
    )
    return {
        "train_features": train_features,
        "train_labels": train_labels,
        "test_features": test_features,
        "test_labels": test_labels,
        "num_classes": 4,
    }


@pytest.fixture(scope="session")
def encoded_problem(small_problem):
    """The small problem encoded once with a record encoder (D=1024)."""
    encoder = RecordEncoder(dimension=1024, num_levels=16, seed=11)
    encoder.fit(small_problem["train_features"])
    return {
        "encoder": encoder,
        "train_hypervectors": encoder.encode(small_problem["train_features"]),
        "train_labels": small_problem["train_labels"],
        "test_hypervectors": encoder.encode(small_problem["test_features"]),
        "test_labels": small_problem["test_labels"],
        "num_classes": small_problem["num_classes"],
        "dimension": 1024,
    }


@pytest.fixture(scope="session")
def multimodal_problem():
    """A harder 3-class problem whose classes have two clusters each.

    Centroid training is visibly sub-optimal here, which is what the
    integration tests about strategy ordering rely on.
    """
    train_features, train_labels, test_features, test_labels = make_gaussian_classes(
        num_classes=3,
        num_features=32,
        train_size=360,
        test_size=150,
        class_sep=2.0,
        clusters_per_class=3,
        noise_std=1.0,
        seed=23,
    )
    return {
        "train_features": train_features,
        "train_labels": train_labels,
        "test_features": test_features,
        "test_labels": test_labels,
        "num_classes": 3,
    }
