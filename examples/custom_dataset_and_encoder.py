#!/usr/bin/env python3
"""Using the library on your own data.

LeHDC does not modify the encoding process (Sec. 2.1), so a new sensing task
needs only its own data in front of the record encoder of Eq. 1.  This
example shows the pieces you would assemble:

* a custom dataset — here a synthetic "machine-vibration" problem built
  directly with the generator API rather than the registry;
* the record encoder, whose levels are fitted to the training features;
* baseline HDC and LeHDC trained on the same encoding;
* inspection of the training history (loss / accuracy per epoch) that the
  classifier records.
"""

from __future__ import annotations

import numpy as np

from repro import LeHDCClassifier, LeHDCConfig, RecordEncoder
from repro.classifiers.baseline import BaselineHDC
from repro.datasets.base import Dataset
from repro.datasets.synthetic import make_gaussian_classes
from repro.eval.figures import TrajectorySeries, render_trajectories

SEED = 5


def build_vibration_dataset() -> Dataset:
    """A 5-class 'bearing fault' style problem: 48 spectral features per sample."""
    features, labels, test_features, test_labels = make_gaussian_classes(
        num_classes=5,
        num_features=48,
        train_size=900,
        test_size=300,
        class_sep=1.8,
        clusters_per_class=3,  # each fault type shows several operating modes
        noise_std=1.0,
        noise_feature_fraction=0.2,  # some spectral bins carry no information
        seed=SEED,
    )
    # Heavy-tail the features a bit, as real vibration spectra are.
    rng = np.random.default_rng(SEED)
    features = features ** 2 + 0.01 * rng.exponential(size=features.shape)
    test_features = test_features ** 2
    return Dataset(
        name="vibration",
        train_features=features,
        train_labels=labels,
        test_features=test_features,
        test_labels=test_labels,
        metadata={"source": "example"},
    )


def main() -> None:
    data = build_vibration_dataset()
    print(f"Dataset: {data.describe()}\n")

    config = LeHDCConfig(
        epochs=40,
        batch_size=64,
        learning_rate=0.01,
        weight_decay=0.03,
        dropout_rate=0.3,
        validation_fraction=0.15,  # track held-out accuracy during training
    )

    encoder = RecordEncoder(dimension=2000, num_levels=32, seed=SEED)
    encoder.fit(data.train_features)
    train_encoded = encoder.encode(data.train_features)
    test_encoded = encoder.encode(data.test_features)

    baseline = BaselineHDC(seed=SEED).fit(train_encoded, data.train_labels)
    lehdc = LeHDCClassifier(config=config, seed=SEED)
    lehdc.fit(train_encoded, data.train_labels)

    print(f"baseline accuracy : {baseline.score(test_encoded, data.test_labels):.4f}")
    print(f"LeHDC accuracy    : {lehdc.score(test_encoded, data.test_labels):.4f}")

    history = lehdc.history_
    series = [
        TrajectorySeries("train accuracy", list(range(history.epochs)), history.train_accuracy),
        TrajectorySeries(
            "held-out accuracy", list(range(history.epochs)), history.validation_accuracy
        ),
    ]
    print(render_trajectories(series, title="LeHDC training history", x_label="epoch"))


if __name__ == "__main__":
    main()
