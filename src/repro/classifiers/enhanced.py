"""Enhanced retraining: the Sec. 3.3 case-study heuristic (Fig. 3).

Two modifications over :class:`~repro.classifiers.retraining.RetrainingHDC`,
exactly as described in the paper's case study:

1. when a sample is misclassified, *all* class hypervectors whose similarity
   to the sample exceeds the true class's similarity are pushed away, not just
   the single most-similar wrong class;
2. every update is scaled by the similarity error — the difference between
   the observed Hamming distance and the ideal one (0 for the true class,
   0.5 for a wrong class) — which is the squared-error gradient the paper
   points out is missing from plain retraining.

The paper uses this variant only to demonstrate that the limitations it
identified are real (it remains a heuristic); here it also serves as an extra
comparison point in the benchmark harness.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.retraining import RetrainingHDC


class EnhancedRetrainingHDC(RetrainingHDC):
    """Retraining with multi-class updates scaled by the similarity error."""

    def _epoch_updates(self, scores, labels, predicted, visit, alpha, dimension):
        """Multi-class pushes scaled by the similarity error, for one whole pass.

        Per misclassified sample the true class is pulled by
        ``alpha * 2 * d_true`` (``d`` the normalised Hamming distance, ideal
        0), then every other class with ``d <= d_true`` and ``d < 0.5`` is
        pushed by ``alpha * 2 * (0.5 - d)``, in ascending class order — the
        order the seed's per-sample loop applied them.  The flattened update
        list reproduces it exactly: per sample a slot for the pull followed
        by its pushes (``np.nonzero`` on the per-sample mask is
        class-ascending already).
        """
        count = visit.size
        true_labels = labels[visit]
        distances = (dimension - scores[visit]) / (2.0 * dimension)
        true_distance = distances[np.arange(count), true_labels]
        shortfall = 0.5 - distances
        push_mask = (distances <= true_distance[:, None]) & (shortfall > 0)
        push_mask[np.arange(count), true_labels] = False
        push_sample, push_class = np.nonzero(push_mask)

        pushes_per_sample = push_mask.sum(axis=1)
        slots = np.zeros(count + 1, dtype=np.intp)
        np.cumsum(1 + pushes_per_sample, out=slots[1:])
        total = int(slots[-1])
        class_indices = np.empty(total, dtype=np.intp)
        coefficients = np.empty(total, dtype=np.float64)
        sample_rows = np.empty(total, dtype=np.intp)

        pull_slots = slots[:-1]
        class_indices[pull_slots] = true_labels
        coefficients[pull_slots] = alpha * true_distance * 2.0
        sample_rows[pull_slots] = visit

        push_starts = np.cumsum(pushes_per_sample) - pushes_per_sample
        rank_within_sample = np.arange(push_sample.size) - push_starts[push_sample]
        push_slots = slots[push_sample] + 1 + rank_within_sample
        class_indices[push_slots] = push_class
        coefficients[push_slots] = -(alpha * shortfall[push_sample, push_class] * 2.0)
        sample_rows[push_slots] = visit[push_sample]
        return class_indices, coefficients, sample_rows


__all__ = ["EnhancedRetrainingHDC"]
