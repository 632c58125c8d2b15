"""Synthetic dataset generators.

Two generators cover the paper's six benchmarks:

* :func:`make_gaussian_classes` - multi-cluster Gaussian mixture classes over
  real-valued feature vectors, used for the sensor/speech benchmarks (UCIHAR,
  ISOLET, PAMAP).  Difficulty is controlled by class separation, the number
  of clusters per class (more clusters = centroid training struggles more,
  which is exactly the regime where LeHDC's discriminative training pays off),
  and the fraction of uninformative noise features.

* :func:`make_image_like_classes` - template-based "images": each class has a
  smooth 2-D prototype, each intra-class cluster a deformation of it, and each
  sample adds pixel noise; channels can be stacked for a CIFAR-like layout.
  This keeps the spatial-correlation structure that makes pixel-level record
  encoding meaningful for the CV benchmarks (MNIST, Fashion-MNIST, CIFAR-10).

Both return features scaled to ``[0, 1]`` so the uniform quantiser behaves the
same way it does on normalised image/sensor data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters describing one synthetic benchmark (used by the registry).

    ``kind`` selects the generator (``"gaussian"`` or ``"image"``); the other
    fields are forwarded to it.  ``substitutes_for`` records which paper
    dataset this spec stands in for, and ``paper_rows`` keeps the published
    Table 1 accuracies for paper-vs-measured tables.
    """

    name: str
    kind: str
    num_classes: int
    num_features: int
    train_size: int
    test_size: int
    class_sep: float
    clusters_per_class: int
    noise_std: float
    noise_feature_fraction: float = 0.0
    substitutes_for: str = ""
    paper_rows: Optional[dict] = None


def _labels_for(
    num_samples: int, num_classes: int, rng: np.random.Generator
) -> np.ndarray:
    """Balanced labels: every class gets floor/ceil(num_samples / K) samples."""
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    return labels.astype(np.int64)


def make_gaussian_classes(
    num_classes: int,
    num_features: int,
    train_size: int,
    test_size: int,
    class_sep: float = 2.0,
    clusters_per_class: int = 1,
    noise_std: float = 1.0,
    noise_feature_fraction: float = 0.0,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate a multi-cluster Gaussian classification problem.

    Parameters
    ----------
    num_classes, num_features:
        Problem shape.
    train_size, test_size:
        Number of samples per split (class-balanced).
    class_sep:
        Distance scale between cluster centres of different classes; larger is
        easier.
    clusters_per_class:
        Number of Gaussian modes per class.  With more than one mode the class
        centroid is a poor summary, so centroid-style HDC training degrades
        while discriminative training (retraining / LeHDC) keeps working —
        the qualitative gap reported in Table 1.
    noise_std:
        Within-cluster standard deviation.
    noise_feature_fraction:
        Fraction of features that carry no class information at all (pure
        noise), mimicking the irrelevant sensor channels of the HAR datasets.
    seed:
        Seed or generator.

    Returns
    -------
    (train_features, train_labels, test_features, test_labels)
        Features scaled to ``[0, 1]`` per feature across both splits.
    """
    num_classes = check_positive_int(num_classes, "num_classes", minimum=2)
    num_features = check_positive_int(num_features, "num_features")
    train_size = check_positive_int(train_size, "train_size", minimum=num_classes)
    test_size = check_positive_int(test_size, "test_size", minimum=num_classes)
    clusters_per_class = check_positive_int(clusters_per_class, "clusters_per_class")
    check_probability(noise_feature_fraction, "noise_feature_fraction")
    if class_sep <= 0 or noise_std <= 0:
        raise ValueError("class_sep and noise_std must be positive")

    rng = ensure_rng(seed)
    num_noise = int(round(noise_feature_fraction * num_features))
    num_informative = num_features - num_noise
    if num_informative < 1:
        raise ValueError("noise_feature_fraction leaves no informative features")

    # Cluster centres: isotropic Gaussian placement scaled by class_sep.
    centres = rng.normal(
        0.0, class_sep, size=(num_classes, clusters_per_class, num_informative)
    )

    def _sample(num_samples: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = _labels_for(num_samples, num_classes, rng)
        cluster_choice = rng.integers(0, clusters_per_class, size=num_samples)
        chosen_centres = centres[labels, cluster_choice]
        informative = chosen_centres + rng.normal(
            0.0, noise_std, size=(num_samples, num_informative)
        )
        if num_noise:
            noise = rng.normal(0.0, noise_std, size=(num_samples, num_noise))
            features = np.concatenate([informative, noise], axis=1)
        else:
            features = informative
        return features, labels

    train_features, train_labels = _sample(train_size)
    test_features, test_labels = _sample(test_size)
    train_features, test_features = _rescale_01(train_features, test_features)
    return train_features, train_labels, test_features, test_labels


def make_image_like_classes(
    num_classes: int,
    image_size: int,
    train_size: int,
    test_size: int,
    channels: int = 1,
    class_sep: float = 2.0,
    clusters_per_class: int = 2,
    noise_std: float = 1.0,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate image-like data: smooth class templates + deformations + noise.

    Each class owns ``clusters_per_class`` prototype images built by smoothing
    white noise (so neighbouring pixels are correlated, as in natural images);
    a sample is a prototype plus i.i.d. pixel noise.  The flattened feature
    vector has ``channels * image_size**2`` entries in ``[0, 1]``.

    ``class_sep`` scales the prototype contrast relative to ``noise_std``; a
    CIFAR-like benchmark uses low separation, many clusters and three channels,
    an MNIST-like one uses higher separation and a single channel.
    """
    num_classes = check_positive_int(num_classes, "num_classes", minimum=2)
    image_size = check_positive_int(image_size, "image_size", minimum=2)
    channels = check_positive_int(channels, "channels")
    train_size = check_positive_int(train_size, "train_size", minimum=num_classes)
    test_size = check_positive_int(test_size, "test_size", minimum=num_classes)
    clusters_per_class = check_positive_int(clusters_per_class, "clusters_per_class")
    if class_sep <= 0 or noise_std <= 0:
        raise ValueError("class_sep and noise_std must be positive")

    rng = ensure_rng(seed)
    num_pixels = channels * image_size * image_size
    templates = np.empty((num_classes, clusters_per_class, num_pixels))
    for class_index in range(num_classes):
        base = _smooth_image(image_size, channels, rng)
        for cluster_index in range(clusters_per_class):
            deformation = 0.5 * _smooth_image(image_size, channels, rng)
            templates[class_index, cluster_index] = class_sep * (base + deformation)

    def _sample(num_samples: int) -> Tuple[np.ndarray, np.ndarray]:
        labels = _labels_for(num_samples, num_classes, rng)
        cluster_choice = rng.integers(0, clusters_per_class, size=num_samples)
        chosen = templates[labels, cluster_choice]
        features = chosen + rng.normal(0.0, noise_std, size=(num_samples, num_pixels))
        return features, labels

    train_features, train_labels = _sample(train_size)
    test_features, test_labels = _sample(test_size)
    train_features, test_features = _rescale_01(train_features, test_features)
    return train_features, train_labels, test_features, test_labels


def _smooth_image(image_size: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """White noise blurred with a separable box filter: cheap spatial correlation."""
    kernel_width = max(2, image_size // 4)
    kernel = np.ones(kernel_width) / kernel_width
    images = []
    for _ in range(channels):
        noise = rng.normal(0.0, 1.0, size=(image_size, image_size))
        blurred = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), 1, noise
        )
        blurred = np.apply_along_axis(
            lambda col: np.convolve(col, kernel, mode="same"), 0, blurred
        )
        images.append(blurred.ravel())
    return np.concatenate(images)


def _rescale_01(
    train_features: np.ndarray, test_features: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Scale both splits to [0, 1] using the training split's per-feature range."""
    minimums = train_features.min(axis=0)
    spans = train_features.max(axis=0) - minimums
    spans[spans == 0] = 1.0
    train_scaled = (train_features - minimums) / spans
    test_scaled = np.clip((test_features - minimums) / spans, 0.0, 1.0)
    return train_scaled, test_scaled


__all__ = ["SyntheticSpec", "make_gaussian_classes", "make_image_like_classes"]
