#!/usr/bin/env python3
"""Edge-deployment scenario: human-activity recognition on a microcontroller.

The motivating use-case for binary HDC (and for LeHDC's zero-overhead
training improvement) is inference on highly resource-limited IoT devices.
This example walks the full deployment story on the UCIHAR substitute
(smartphone accelerometer/gyroscope activity recognition):

1. train class hypervectors with LeHDC on the "server";
2. export them as a bit-packed model (the only thing the device must store);
3. run device-style inference with XOR + popcount on the packed model and
   verify it matches the dense reference implementation bit for bit;
4. report the storage footprint and the operation count per query from the
   hardware cost model, comparing against a multi-model ensemble of the same
   accuracy class.
"""

from __future__ import annotations

import time

import numpy as np

from repro import RecordEncoder, get_dataset
from repro.eval import default_strategy_factories
from repro.eval.tables import format_table
from repro.hardware.cost_model import InferenceCostModel
from repro.kernels import pack_bipolar

DATASET = "ucihar"
DIMENSION = 2000
SEED = 3


def main() -> None:
    data = get_dataset(DATASET, profile="small", seed=SEED)
    print(f"Dataset: {data.describe()}")

    encoder = RecordEncoder(dimension=DIMENSION, num_levels=32, seed=SEED)
    encoder.fit(data.train_features)
    train_encoded = encoder.encode(data.train_features)
    test_encoded = encoder.encode(data.test_features)

    # ------------------------------------------------------------- training
    strategies = default_strategy_factories(DATASET, lehdc_epochs=30)
    lehdc = strategies["lehdc"](SEED).fit(train_encoded, data.train_labels)
    baseline = strategies["baseline"](SEED).fit(train_encoded, data.train_labels)
    multimodel = strategies["multimodel"](SEED).fit(train_encoded, data.train_labels)

    print(f"LeHDC test accuracy     : {lehdc.score(test_encoded, data.test_labels):.4f}")
    print(f"Baseline test accuracy  : {baseline.score(test_encoded, data.test_labels):.4f}")
    print(f"Multi-model accuracy    : {multimodel.score(test_encoded, data.test_labels):.4f}")

    # ------------------------------------------------- export for the device
    packed_model = pack_bipolar(lehdc.class_hypervectors_)
    print(
        f"\nExported model: {len(packed_model)} class hypervectors, "
        f"{packed_model.storage_bytes} bytes packed "
        f"({packed_model.storage_bytes / 1024:.1f} KiB)"
    )

    # -------------------------------------------------- device-style inference
    queries = test_encoded[:200]
    packed_queries = pack_bipolar(queries)

    start = time.perf_counter()
    distances = packed_queries.hamming_distance(packed_model)
    packed_predictions = np.argmin(distances, axis=1)
    packed_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    dense_predictions = lehdc.predict(queries)
    dense_elapsed = time.perf_counter() - start

    assert np.array_equal(packed_predictions, dense_predictions)
    print(
        f"Packed (XOR+popcount) inference matches the dense reference on "
        f"{len(queries)} queries"
    )
    print(f"  packed backend : {1000 * packed_elapsed:.1f} ms")
    print(f"  dense backend  : {1000 * dense_elapsed:.1f} ms")

    # -------------------------------------------------------- cost accounting
    model = InferenceCostModel(dimension=DIMENSION, num_classes=data.num_classes)
    rows = []
    for name, models_per_class in (("baseline / retraining / LeHDC", 1), ("multi-model (8/class)", 8)):
        cost = model.cost(name, models_per_class=models_per_class)
        rows.append(
            [name, f"{cost.storage_kib:.1f}", cost.xor_popcount_ops, cost.latency_cycles]
        )
    print()
    print(
        format_table(
            ["inference state", "storage KiB", "XOR+popcount ops/query", "latency cycles/query"],
            rows,
            title="Device-side cost model (Sec. 5.1): LeHDC adds zero overhead",
        )
    )
    print(
        f"\nPer-query encoding cost (shared by all strategies): "
        f"{model.encoding_cost_ops(data.num_features)} bind+accumulate operations"
    )


if __name__ == "__main__":
    main()
