"""Figure 6 — accuracy versus hypervector dimension on Fashion-MNIST and ISOLET.

The paper sweeps ``D`` from 10 000 down to 2 000 for every training strategy
and reports two observations this benchmark checks:

1. LeHDC dominates every other strategy at every dimension;
2. LeHDC at the *smallest* swept dimension already matches the retraining
   strategy at the *largest* (the scalability headline: LeHDC@2 000 ≈
   retraining@10 000) — measured here through
   :meth:`DimensionSweepResult.crossover_dimension`;
3. multi-model can fall below the baseline (the ISOLET panel).

The default sweep is scaled down to ``{1000, 2000, 4000}``; set
``REPRO_BENCH_DIMENSION`` to at least 10 000 and export
``REPRO_BENCH_FIG6_DIMENSIONS=2000,4000,6000,8000,10000`` to mirror the paper
exactly.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import (
    BENCH_LEHDC_EPOCHS,
    BENCH_PROFILE,
    BENCH_RETRAIN_ITERS,
    print_report,
)
from repro.eval.experiment import default_strategy_factories
from repro.eval.sweep import run_dimension_sweep
from repro.eval.tables import format_table

FIG6_DATASETS = ("fashion_mnist", "isolet")


def fig6_dimensions():
    configured = os.environ.get("REPRO_BENCH_FIG6_DIMENSIONS")
    if configured:
        return tuple(int(value) for value in configured.split(","))
    return (1000, 2000, 4000)


@pytest.mark.parametrize("dataset_name", FIG6_DATASETS)
def test_fig6_dimension_sweep(benchmark, dataset_name):
    dimensions = fig6_dimensions()

    def run():
        return run_dimension_sweep(
            dataset_name=dataset_name,
            dimensions=dimensions,
            strategies=default_strategy_factories(
                dataset_name,
                lehdc_epochs=BENCH_LEHDC_EPOCHS,
                retraining_iterations=BENCH_RETRAIN_ITERS,
            ),
            num_levels=32,
            repetitions=1,
            profile=BENCH_PROFILE,
            seed=6,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    strategies = ["baseline", "multimodel", "retraining", "lehdc"]
    rows = []
    for dimension in result.dimensions:
        rows.append(
            [dimension]
            + [f"{result.summary(strategy)[dimension].mean:.4f}" for strategy in strategies]
        )
    print_report(
        f"Figure 6 — accuracy vs dimension on {dataset_name} (profile={BENCH_PROFILE})",
        format_table(["D"] + strategies, rows),
    )

    largest = result.dimensions[-1]
    smallest = result.dimensions[0]
    lehdc = result.summary("lehdc")
    retraining = result.summary("retraining")
    baseline = result.summary("baseline")

    # (1) LeHDC dominates at every dimension (small tolerance for single-run noise).
    for dimension in result.dimensions:
        assert lehdc[dimension].mean >= retraining[dimension].mean - 0.03
        assert lehdc[dimension].mean >= baseline[dimension].mean - 0.03

    # (2) The scalability headline: LeHDC reaches the accuracy of retraining at
    # the largest dimension while using a strictly smaller dimension.  (The
    # paper's exact statement — LeHDC@2 000 ≈ retraining@10 000 — is a 5x
    # dimension ratio; the scaled-down default sweep spans only 4x, so the
    # check is that the crossover happens strictly below the top dimension.)
    crossover = result.crossover_dimension("lehdc", "retraining", largest)
    print_report(
        f"Figure 6 — crossover on {dataset_name}",
        f"smallest D at which LeHDC matches retraining@{largest}: {crossover}",
    )
    assert crossover is not None
    assert crossover < largest
    assert lehdc[smallest].mean >= baseline[smallest].mean - 0.02
