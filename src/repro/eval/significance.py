"""Statistical significance helpers for accuracy comparisons.

Table 1 reports ``mean±std`` over repetitions, and the paper's conclusions are
about which strategy is *better*, not just numerically higher.  This module
provides the two tests a careful reader would apply to such claims:

* :func:`mcnemar_test` — per-sample paired comparison of two classifiers on
  the *same* test set (the right test when both models were evaluated on
  identical queries, as every benchmark in this repository does);
* :func:`paired_accuracy_ttest` — paired t-test over per-repetition
  accuracies (the right test for mean±std rows aggregated over seeds).

Both are thin, explicit wrappers over ``scipy.stats`` so the benchmark
harness and downstream users can quote p-values instead of eyeballing error
bars.  SciPy is imported inside the functions that use it: ``import repro``
(and with it ``repro serve``) needs only NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import check_labels


@dataclass(frozen=True)
class TestResult:
    """Outcome of a significance test."""

    statistic: float
    p_value: float
    detail: str

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level *alpha*."""
        return self.p_value < alpha


def mcnemar_test(
    predictions_a: np.ndarray,
    predictions_b: np.ndarray,
    labels: np.ndarray,
) -> TestResult:
    """McNemar's test: do two classifiers disagree more than chance allows?

    Uses the exact binomial form (recommended when the number of discordant
    pairs is small, which is common at benchmark scale).  The null hypothesis
    is that both classifiers have the same error rate on the population the
    test set was drawn from.
    """
    labels = check_labels(np.asarray(labels), np.asarray(labels).shape[0])
    predictions_a = check_labels(np.asarray(predictions_a), labels.shape[0])
    predictions_b = check_labels(np.asarray(predictions_b), labels.shape[0])

    correct_a = predictions_a == labels
    correct_b = predictions_b == labels
    only_a = int(np.sum(correct_a & ~correct_b))
    only_b = int(np.sum(~correct_a & correct_b))
    discordant = only_a + only_b
    if discordant == 0:
        return TestResult(
            statistic=0.0,
            p_value=1.0,
            detail="no discordant predictions; classifiers are indistinguishable here",
        )
    from scipy import stats

    result = stats.binomtest(min(only_a, only_b), discordant, p=0.5)
    return TestResult(
        statistic=float(min(only_a, only_b)),
        p_value=float(result.pvalue),
        detail=(
            f"A-only correct: {only_a}, B-only correct: {only_b}, "
            f"discordant pairs: {discordant}"
        ),
    )


def paired_accuracy_ttest(
    accuracies_a: Sequence[float], accuracies_b: Sequence[float]
) -> TestResult:
    """Paired t-test over per-repetition accuracies of two strategies.

    Each repetition must have used the same data/seed for both strategies
    (which :func:`repro.eval.experiment.run_strategy_comparison` guarantees,
    since every strategy in a repetition shares the encoding).
    """
    a = np.asarray(list(accuracies_a), dtype=np.float64)
    b = np.asarray(list(accuracies_b), dtype=np.float64)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("accuracy sequences must be equal-length and non-empty")
    if a.size == 1:
        raise ValueError("at least two paired repetitions are required for a t-test")
    differences = a - b
    if np.allclose(differences, differences[0]):
        # Zero variance in the differences: the t statistic is undefined; report
        # a degenerate but informative result instead of a NaN.
        identical = bool(np.allclose(differences, 0.0))
        return TestResult(
            statistic=float("inf") if not identical else 0.0,
            p_value=0.0 if not identical else 1.0,
            detail="constant difference across repetitions",
        )
    from scipy import stats

    statistic, p_value = stats.ttest_rel(a, b)
    return TestResult(
        statistic=float(statistic),
        p_value=float(p_value),
        detail=f"mean difference {float(np.mean(differences)):+.4f} over {a.size} repetitions",
    )


def wilson_interval(correct: int, total: int, confidence: float = 0.95) -> tuple:
    """Wilson score confidence interval for a single accuracy estimate.

    Useful for quoting uncertainty on a single-run accuracy (e.g. the per-class
    recalls in :mod:`repro.eval.reports`) without repetitions.
    """
    if total <= 0:
        raise ValueError("total must be positive")
    if not (0 <= correct <= total):
        raise ValueError("correct must be in [0, total]")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    from scipy import stats

    z = float(stats.norm.ppf(0.5 + confidence / 2.0))
    proportion = correct / total
    denominator = 1.0 + z**2 / total
    centre = (proportion + z**2 / (2 * total)) / denominator
    margin = (
        z
        * np.sqrt(proportion * (1 - proportion) / total + z**2 / (4 * total**2))
        / denominator
    )
    return (max(0.0, centre - margin), min(1.0, centre + margin))


__all__ = ["TestResult", "mcnemar_test", "paired_accuracy_ttest", "wilson_interval"]
