#!/usr/bin/env python3
"""Compare every HDC training strategy on one benchmark (a mini Table 1).

The paper's central experiment (Table 1) pits four ways of obtaining binary
class hypervectors against each other — centroid bundling, SearcHD-style
multi-model ensembles, QuantHD-style retraining, and LeHDC — on the same
encoded data.  This example reruns that comparison on a single dataset,
together with the Sec. 3.3 enhanced retraining of Fig. 3, and prints a
Table-1-style report with the paper's published numbers alongside for
reference.

Usage::

    python examples/compare_training_strategies.py [dataset]

where ``dataset`` is one of mnist, fashion_mnist, cifar10, ucihar, isolet,
pamap (default: ucihar).
"""

from __future__ import annotations

import sys

from repro import EnhancedRetrainingHDC, RecordEncoder, get_dataset
from repro.datasets.registry import PAPER_TABLE1
from repro.eval import default_strategy_factories
from repro.eval.tables import format_table

DIMENSION = 2000
SEED = 1


def build_strategies(dataset_name: str):
    """All training strategies at quick-example budgets (order = report order)."""
    table1 = default_strategy_factories(dataset_name, lehdc_epochs=30, retraining_iterations=25)
    return {
        "baseline": table1["baseline"](SEED),
        "multimodel": table1["multimodel"](SEED),
        "retraining": table1["retraining"](SEED),
        "enhanced retraining": EnhancedRetrainingHDC(iterations=25, seed=SEED),
        "lehdc": table1["lehdc"](SEED),
    }


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "ucihar"
    data = get_dataset(dataset_name, profile="small", seed=SEED)
    print(f"Dataset: {data.describe()}")
    print("Encoding once; every strategy trains on the same hypervectors...\n")

    encoder = RecordEncoder(dimension=DIMENSION, num_levels=32, seed=SEED)
    encoder.fit(data.train_features)
    train_encoded = encoder.encode(data.train_features)
    test_encoded = encoder.encode(data.test_features)

    paper_row = PAPER_TABLE1.get(dataset_name, {})
    rows = []
    for name, model in build_strategies(dataset_name).items():
        model.fit(train_encoded, data.train_labels)
        train_accuracy = model.score(train_encoded, data.train_labels)
        test_accuracy = model.score(test_encoded, data.test_labels)
        paper_value = paper_row.get(name)
        rows.append(
            [
                name,
                f"{train_accuracy:.4f}",
                f"{test_accuracy:.4f}",
                f"{paper_value:.2f}%" if paper_value is not None else "-",
            ]
        )
        print(f"  trained {name:22s} test accuracy {test_accuracy:.4f}")

    print()
    print(
        format_table(
            ["strategy", "train acc", "test acc", "paper Table 1 (real data)"],
            rows,
            title=f"Strategy comparison on {dataset_name} (D={DIMENSION}, synthetic substitute)",
        )
    )
    print(
        "\nExpected shape (per the paper): lehdc on top, retraining variants next,\n"
        "multi-model inconsistent, baseline last.  Absolute values differ from the\n"
        "paper because the dataset is a synthetic substitute at reduced scale."
    )


if __name__ == "__main__":
    main()
