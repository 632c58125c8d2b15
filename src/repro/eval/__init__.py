"""Evaluation harness: metrics, multi-seed experiments, sweeps, tables, figures.

This package turns the classifiers into the numbers the paper reports:

* :mod:`repro.eval.metrics` - accuracy, confusion matrices, ``mean±std``
  aggregation (Table 1 is reported as mean±std over repetitions);
* :mod:`repro.eval.experiment` - run a set of training strategies on a
  dataset over multiple seeds with one shared encoding per seed (Table 1
  and the Table 2 grids), at the reproduction's budgets by default;
* :mod:`repro.eval.sweep` - the dimension sweep of Fig. 6, through the same
  shared step;
* :mod:`repro.eval.tables` / :mod:`repro.eval.figures` - plain-text rendering
  of tables and accuracy-trajectory "figures" (no plotting dependency).
"""

from repro.eval.metrics import MeanStd, accuracy, aggregate_mean_std, confusion_matrix
from repro.eval.experiment import (
    ExperimentResult,
    StrategyResult,
    default_strategy_factories,
    run_strategy_comparison,
)
from repro.eval.sweep import DimensionSweepResult, run_dimension_sweep
from repro.eval.tables import format_table
from repro.eval.figures import TrajectorySeries, render_trajectories, sparkline
from repro.eval.reports import (
    ClassificationReport,
    classification_report,
    compare_per_class,
    training_timing_report,
)
from repro.eval.significance import (
    mcnemar_test,
    paired_accuracy_ttest,
    wilson_interval,
)

__all__ = [
    "accuracy",
    "confusion_matrix",
    "MeanStd",
    "aggregate_mean_std",
    "StrategyResult",
    "ExperimentResult",
    "run_strategy_comparison",
    "default_strategy_factories",
    "DimensionSweepResult",
    "run_dimension_sweep",
    "format_table",
    "TrajectorySeries",
    "render_trajectories",
    "sparkline",
    "ClassificationReport",
    "classification_report",
    "compare_per_class",
    "training_timing_report",
    "mcnemar_test",
    "paired_accuracy_ttest",
    "wilson_interval",
]
