"""Unit tests for repro.datasets.synthetic."""

import numpy as np
import pytest

from repro.datasets.synthetic import (
    make_gaussian_classes,
    make_image_like_classes,
)


def _nearest_centroid_accuracy(train_x, train_y, test_x, test_y):
    """Accuracy of the nearest class mean (Euclidean) in raw feature space."""
    centroids = np.stack([train_x[train_y == label].mean(axis=0) for label in range(train_y.max() + 1)])
    distances = ((test_x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(distances, axis=1) == test_y))


class TestMakeGaussianClasses:
    def test_shapes_and_range(self):
        train_x, train_y, test_x, test_y = make_gaussian_classes(
            num_classes=3, num_features=10, train_size=90, test_size=30, seed=0
        )
        assert train_x.shape == (90, 10)
        assert test_x.shape == (30, 10)
        assert train_x.min() >= 0.0 and train_x.max() <= 1.0
        assert test_x.min() >= 0.0 and test_x.max() <= 1.0
        assert set(np.unique(train_y)) == {0, 1, 2}

    def test_balanced_classes(self):
        _, train_y, _, _ = make_gaussian_classes(
            num_classes=4, num_features=8, train_size=100, test_size=20, seed=1
        )
        counts = np.bincount(train_y)
        assert counts.max() - counts.min() <= 1

    def test_reproducible(self):
        a = make_gaussian_classes(3, 8, 60, 20, seed=5)
        b = make_gaussian_classes(3, 8, 60, 20, seed=5)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_higher_separation_is_easier(self):
        def accuracy(class_sep):
            train_x, train_y, test_x, test_y = make_gaussian_classes(
                num_classes=4,
                num_features=16,
                train_size=400,
                test_size=200,
                class_sep=class_sep,
                noise_std=1.0,
                seed=7,
            )
            return _nearest_centroid_accuracy(train_x, train_y, test_x, test_y)

        assert accuracy(4.0) > accuracy(0.3)

    def test_noise_features_carry_no_information(self):
        train_x, train_y, _, _ = make_gaussian_classes(
            num_classes=2,
            num_features=20,
            train_size=400,
            test_size=50,
            noise_feature_fraction=0.5,
            class_sep=3.0,
            seed=8,
        )
        # The last half of the features are pure noise: class-conditional means
        # should be nearly identical there.
        noise_block = train_x[:, 10:]
        mean_difference = np.abs(
            noise_block[train_y == 0].mean(axis=0) - noise_block[train_y == 1].mean(axis=0)
        ).max()
        informative_block = train_x[:, :10]
        informative_difference = np.abs(
            informative_block[train_y == 0].mean(axis=0)
            - informative_block[train_y == 1].mean(axis=0)
        ).max()
        assert mean_difference < informative_difference

    def test_validation(self):
        with pytest.raises(ValueError):
            make_gaussian_classes(1, 10, 50, 20)
        with pytest.raises(ValueError):
            make_gaussian_classes(3, 10, 50, 20, class_sep=0.0)
        with pytest.raises(ValueError):
            make_gaussian_classes(3, 10, 50, 20, noise_feature_fraction=1.0)


class TestMakeImageLikeClasses:
    def test_shapes(self):
        train_x, train_y, test_x, test_y = make_image_like_classes(
            num_classes=4, image_size=8, train_size=80, test_size=40, seed=0
        )
        assert train_x.shape == (80, 64)
        assert test_x.shape == (40, 64)
        assert set(np.unique(train_y)) == {0, 1, 2, 3}

    def test_channels_multiply_features(self):
        train_x, _, _, _ = make_image_like_classes(
            num_classes=2, image_size=6, channels=3, train_size=20, test_size=10, seed=1
        )
        assert train_x.shape[1] == 3 * 36

    def test_range_01(self):
        train_x, _, test_x, _ = make_image_like_classes(
            num_classes=3, image_size=8, train_size=60, test_size=30, seed=2
        )
        assert train_x.min() >= 0.0 and train_x.max() <= 1.0
        assert test_x.min() >= 0.0 and test_x.max() <= 1.0

    def test_learnable(self):
        train_x, train_y, test_x, test_y = make_image_like_classes(
            num_classes=3,
            image_size=10,
            train_size=300,
            test_size=150,
            class_sep=3.0,
            clusters_per_class=1,
            noise_std=0.8,
            seed=3,
        )
        assert _nearest_centroid_accuracy(train_x, train_y, test_x, test_y) > 0.7

    def test_reproducible(self):
        a = make_image_like_classes(2, 6, 20, 10, seed=4)
        b = make_image_like_classes(2, 6, 20, 10, seed=4)
        np.testing.assert_array_equal(a[0], b[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            make_image_like_classes(2, 1, 20, 10)
        with pytest.raises(ValueError):
            make_image_like_classes(2, 8, 20, 10, noise_std=0.0)
