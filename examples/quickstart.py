#!/usr/bin/env python3
"""Quickstart: train a LeHDC classifier end to end in a few lines.

This is the smallest useful program against the public API:

1. load a benchmark dataset (a synthetic Fashion-MNIST substitute by default;
   the real files are used automatically if ``$REPRO_DATA_DIR`` points at them);
2. build an ``HDCPipeline`` = record-based encoder + LeHDC classifier;
3. fit, score, and compare against the vanilla (baseline) binary HDC that the
   paper improves upon.

Run with ``python examples/quickstart.py``; it finishes in well under a
minute on a laptop CPU.
"""

from __future__ import annotations

from repro import (
    BaselineHDC,
    HDCPipeline,
    LeHDCClassifier,
    RecordEncoder,
    get_dataset,
    reproduction_config,
)

DATASET = "fashion_mnist"
DIMENSION = 2000  # the paper uses 10 000; 2 000 keeps the example fast
SEED = 0


def main() -> None:
    data = get_dataset(DATASET, profile="tiny", seed=SEED)
    print(f"Dataset: {data.describe()}")

    # --- baseline binary HDC (Eq. 2): bundle each class's sample hypervectors.
    baseline = HDCPipeline(
        RecordEncoder(dimension=DIMENSION, num_levels=32, seed=SEED),
        BaselineHDC(seed=SEED),
    )
    baseline.fit(data.train_features, data.train_labels)
    baseline_accuracy = baseline.score(data.test_features, data.test_labels)

    # --- LeHDC: same encoder, but the class hypervectors are trained as the
    # weights of the equivalent single-layer BNN (Adam + cross-entropy +
    # weight decay + dropout).  The reproduction's recipe keeps the Table 2
    # regularisation for this dataset; epochs are reduced so the example
    # stays fast.
    config = reproduction_config(DATASET, epochs=30)
    lehdc = HDCPipeline(
        RecordEncoder(dimension=DIMENSION, num_levels=32, seed=SEED),
        LeHDCClassifier(config=config, seed=SEED),
    )
    lehdc.fit(data.train_features, data.train_labels)
    lehdc_accuracy = lehdc.score(data.test_features, data.test_labels)

    print(f"Baseline binary HDC accuracy : {baseline_accuracy:.4f}")
    print(f"LeHDC accuracy               : {lehdc_accuracy:.4f}")
    print(f"Improvement                  : {lehdc_accuracy - baseline_accuracy:+.4f}")
    print(
        "Both models store exactly the same inference state: "
        f"{lehdc.class_hypervectors_.shape} binary class hypervectors."
    )


if __name__ == "__main__":
    main()
