#!/usr/bin/env python3
"""Reproduce the full Table 1 from the command line (outside pytest).

This drives the same experiment harness as ``benchmarks/bench_table1_accuracy.py``
but as a plain script with progress output, so the headline result — LeHDC's
>15% average accuracy increment over baseline binary HDC — can be regenerated
with one command:

    python examples/reproduce_table1.py                 # quick (tiny profile)
    python examples/reproduce_table1.py --profile small # benchmark scale
    python examples/reproduce_table1.py --dimension 10000 --profile full  # paper scale

The script prints measured mean±std accuracies next to the paper's published
values for every dataset and strategy, plus the average-increment row.
"""

from __future__ import annotations

import argparse
import time

from repro.datasets.registry import PAPER_TABLE1, list_datasets
from repro.eval.experiment import default_strategy_factories, run_strategy_comparison
from repro.eval.metrics import average_increment
from repro.eval.tables import format_table

STRATEGY_ORDER = ("baseline", "multimodel", "retraining", "lehdc")


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", default="tiny", choices=["tiny", "small", "full"])
    parser.add_argument("--dimension", type=int, default=2000)
    parser.add_argument("--repetitions", type=int, default=1)
    parser.add_argument("--lehdc-epochs", type=int, default=30)
    parser.add_argument("--retraining-iterations", type=int, default=25)
    parser.add_argument(
        "--datasets", nargs="*", default=None, help="subset of datasets (default: all six)"
    )
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    datasets = args.datasets or list_datasets()

    measured = {}
    for dataset_name in datasets:
        start = time.time()
        result = run_strategy_comparison(
            dataset_name=dataset_name,
            strategies=default_strategy_factories(
                dataset_name,
                lehdc_epochs=args.lehdc_epochs,
                retraining_iterations=args.retraining_iterations,
            ),
            dimension=args.dimension,
            num_levels=32,
            repetitions=args.repetitions,
            profile=args.profile,
            seed=2022,
        )
        measured[dataset_name] = result.summary_percent()
        print(f"[{dataset_name}] done in {time.time() - start:.1f}s")

    rows = []
    for dataset_name in datasets:
        paper_row = PAPER_TABLE1[dataset_name]
        for strategy in STRATEGY_ORDER:
            rows.append(
                [
                    dataset_name,
                    strategy,
                    str(measured[dataset_name][strategy]),
                    f"{paper_row[strategy]:.2f}",
                ]
            )
    print()
    print(
        format_table(
            ["dataset", "strategy", "measured acc %", "paper acc %"],
            rows,
            title=(
                f"Table 1 reproduction (profile={args.profile}, D={args.dimension}, "
                f"reps={args.repetitions}; synthetic substitutes)"
            ),
        )
    )

    baseline_means = [measured[name]["baseline"].mean for name in datasets]
    print("\nAverage increment over baseline (percentage points):")
    for strategy in ("multimodel", "retraining", "lehdc"):
        strategy_means = [measured[name][strategy].mean for name in datasets]
        print(f"  {strategy:11s} {average_increment(strategy_means, baseline_means):+6.2f}")
    print("  (paper:      multimodel +2.22, retraining +8.67, lehdc +15.32)")


if __name__ == "__main__":
    main()
