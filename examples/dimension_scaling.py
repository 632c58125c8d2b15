#!/usr/bin/env python3
"""Dimension scaling study: how small can the hypervectors get? (Fig. 6 story)

Hypervector dimension ``D`` is the main cost knob of a binary HDC deployment:
storage, energy and latency all scale linearly with it.  Figure 6 of the paper
shows that LeHDC keeps its accuracy advantage as ``D`` shrinks and reaches the
accuracy of the retraining strategy while using a fraction of its dimension.

This example sweeps ``D`` on one dataset for the baseline, retraining, and
LeHDC strategies, prints the accuracy-vs-dimension series, and reports the
crossover: the smallest ``D`` at which LeHDC matches retraining at the largest
swept ``D`` — i.e. how much smaller a LeHDC model can be for the same quality.

Usage::

    python examples/dimension_scaling.py [dataset]

(default dataset: isolet, the right panel of Fig. 6).
"""

from __future__ import annotations

import sys

from repro import run_dimension_sweep
from repro.eval import default_strategy_factories
from repro.eval.figures import TrajectorySeries, render_trajectories
from repro.eval.tables import format_table

DIMENSIONS = (500, 1000, 2000, 4000)
SEED = 4


def main() -> None:
    dataset_name = sys.argv[1] if len(sys.argv) > 1 else "isolet"
    strategies = default_strategy_factories(
        dataset_name, lehdc_epochs=25, retraining_iterations=20
    )
    del strategies["multimodel"]

    print(f"Sweeping D over {DIMENSIONS} on {dataset_name} (this takes a minute)...\n")
    result = run_dimension_sweep(
        dataset_name=dataset_name,
        dimensions=DIMENSIONS,
        strategies=strategies,
        num_levels=32,
        repetitions=1,
        profile="small",
        seed=SEED,
    )

    rows = []
    for dimension in result.dimensions:
        rows.append(
            [dimension]
            + [f"{result.summary(name)[dimension].mean:.4f}" for name in strategies]
        )
    print(
        format_table(
            ["D"] + list(strategies), rows, title=f"Accuracy vs dimension on {dataset_name}"
        )
    )

    print()
    series = [
        TrajectorySeries(name, list(result.dimensions), result.series(name))
        for name in strategies
    ]
    print(render_trajectories(series, title="Accuracy trend (low D -> high D)", x_label="D"))

    largest = result.dimensions[-1]
    crossover = result.crossover_dimension("lehdc", "retraining", largest)
    reference = result.summary("retraining")[largest].mean
    print(
        f"\nRetraining accuracy at D={largest}: {reference:.4f}\n"
        f"Smallest D at which LeHDC matches it: {crossover}"
    )
    if crossover is not None and crossover < largest:
        print(
            f"=> a LeHDC model can be ~{largest // crossover}x smaller than the "
            "retraining model at the same accuracy — the Fig. 6 scalability result."
        )


if __name__ == "__main__":
    main()
