"""Table 1 — inference accuracy of the four training strategies on six benchmarks.

Regenerates the paper's Table 1: for every dataset, the test accuracy
(mean±std over repetitions) of Baseline Binary HDC, Multi-Model HDC,
Retraining HDC and LeHDC, plus the average increment of each strategy over
the baseline (the paper's "Avg Increment" column, +15.32 for LeHDC).

Scaled-down defaults (set in ``benchmarks/conftest.py``):

* synthetic dataset substitutes at the ``small`` profile instead of the real
  60k-sample datasets;
* ``D`` = 4 000 instead of 10 000 (raise via ``REPRO_BENCH_DIMENSION``);
* the strategies are :func:`repro.eval.experiment.default_strategy_factories`:
  LeHDC trains by :func:`repro.core.configs.reproduction_config` (the
  Table 2 weight decay / dropout per dataset at batch size 64 and learning
  rate 0.01), and Multi-Model uses 8 models/class and 2 passes instead of 64
  models/class.

The qualitative shape to check against the paper: LeHDC wins on every
dataset, retraining is second, multi-model is inconsistent (sometimes below
baseline), and the LeHDC average increment over the baseline is the largest.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    BENCH_DIMENSION,
    BENCH_LEHDC_EPOCHS,
    BENCH_PROFILE,
    BENCH_REPETITIONS,
    BENCH_RETRAIN_ITERS,
    print_report,
)
from repro.datasets.registry import PAPER_TABLE1, list_datasets
from repro.eval.experiment import default_strategy_factories, run_strategy_comparison
from repro.eval.metrics import average_increment
from repro.eval.tables import format_table

STRATEGY_ORDER = ["baseline", "multimodel", "retraining", "lehdc"]

#: Collected rows, filled as the per-dataset benchmarks run and printed by the
#: session-ending summary benchmark.
_RESULTS: dict = {}


def run_dataset(dataset_name: str):
    return run_strategy_comparison(
        dataset_name=dataset_name,
        strategies=default_strategy_factories(
            dataset_name,
            lehdc_epochs=BENCH_LEHDC_EPOCHS,
            retraining_iterations=BENCH_RETRAIN_ITERS,
        ),
        dimension=BENCH_DIMENSION,
        num_levels=32,
        repetitions=BENCH_REPETITIONS,
        profile=BENCH_PROFILE,
        seed=2022,
    )


@pytest.mark.parametrize("dataset_name", list_datasets())
def test_table1_dataset(benchmark, dataset_name):
    """One Table 1 column: accuracy of all four strategies on *dataset_name*."""
    result = benchmark.pedantic(run_dataset, args=(dataset_name,), rounds=1, iterations=1)
    _RESULTS[dataset_name] = result
    summary = result.summary_percent()

    rows = [
        [
            strategy,
            str(summary[strategy]),
            f"{PAPER_TABLE1[dataset_name][strategy]:.2f}",
        ]
        for strategy in STRATEGY_ORDER
    ]
    print_report(
        f"Table 1 column — {dataset_name} (D={BENCH_DIMENSION}, "
        f"profile={BENCH_PROFILE}, reps={BENCH_REPETITIONS})",
        format_table(["strategy", "measured acc % (mean±std)", "paper acc %"], rows),
    )

    # Shape checks: LeHDC must beat the baseline and at least match retraining.
    assert summary["lehdc"].mean > summary["baseline"].mean
    assert summary["lehdc"].mean >= summary["retraining"].mean - 1.0


def test_table1_average_increment(benchmark):
    """The "Avg Increment" column: average gain over the baseline across datasets.

    Runs after the per-dataset benchmarks (pytest executes them in file
    order); any dataset that has not been measured yet is measured here.
    """

    def compute():
        for name in list_datasets():
            if name not in _RESULTS:
                _RESULTS[name] = run_dataset(name)
        baseline_means = [
            _RESULTS[name].summary_percent()["baseline"].mean for name in list_datasets()
        ]
        increments = {}
        for strategy in ("multimodel", "retraining", "lehdc"):
            strategy_means = [
                _RESULTS[name].summary_percent()[strategy].mean for name in list_datasets()
            ]
            increments[strategy] = average_increment(strategy_means, baseline_means)
        return increments

    increments = benchmark.pedantic(compute, rounds=1, iterations=1)
    paper_increments = {"multimodel": 2.22, "retraining": 8.67, "lehdc": 15.32}
    rows = [
        [strategy, f"{increments[strategy]:+.2f}", f"{paper_increments[strategy]:+.2f}"]
        for strategy in ("multimodel", "retraining", "lehdc")
    ]
    print_report(
        "Table 1 — average increment over Baseline Binary HDC (percentage points)",
        format_table(["strategy", "measured", "paper"], rows),
    )

    # Shape check: LeHDC has the largest average increment and it is clearly positive.
    assert increments["lehdc"] > increments["retraining"]
    assert increments["lehdc"] > 3.0
