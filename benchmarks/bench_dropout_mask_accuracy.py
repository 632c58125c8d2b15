"""Dropout-mask accuracy parity: the 16-bit keep mask against the float64 draw.

``Dropout`` draws its keep mask as 16-bit thresholds, one uint64 per four
entries, where it used to draw one float64 uniform per entry.  That changes
the RNG stream, so a seeded LeHDC fit ends at different weights.  This
benchmark checks that the change costs no accuracy.  It fits the
``train-lehdc`` configuration (fashion_mnist ``small`` substitute, D=4000,
16 levels, the Table 2 row, 20 epochs) for seeds 1-40.  Each seed runs twice:
once as shipped, and once with the float64 draw of ``tests/reference.py``
patched over ``Dropout._draw_keep_mask``, which reproduces the pre-change fit
bit for bit (``tests/integration/test_lehdc_step_parity.py``).

The per-seed table, both medians and the mean paired difference with its
95 % t interval go to ``benchmarks/results/``.  The run fails if the medians
differ by more than 1 point, or if the interval's lower end is below -1.5
points.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from benchmarks.conftest import RESULTS_DIR, print_report
from repro.classifiers.pipeline import HDCPipeline
from repro.core.configs import PAPER_CONFIGS
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.registry import get_dataset
from repro.eval.tables import format_table
from repro.hdc.encoders import RecordEncoder
from repro.nn.layers import Dropout
from tests.reference import float64_keep_mask

SEEDS = range(1, 41)
DATASET, PROFILE, DIMENSION, LEVELS, EPOCHS = "fashion_mnist", "small", 4000, 16, 20
MAX_MEDIAN_GAP_POINTS = 1.0
MIN_CI_LOWER_POINTS = -1.5


def fit_accuracy(data, seed: int) -> float:
    """Test accuracy of one seeded ``train-lehdc`` fit."""
    pipeline = HDCPipeline(
        RecordEncoder(dimension=DIMENSION, num_levels=LEVELS, tie_break="positive", seed=seed),
        LeHDCClassifier(PAPER_CONFIGS[DATASET], seed=seed),
    )
    pipeline.fit(data.train_features, data.train_labels, epochs=EPOCHS)
    return float(np.mean(pipeline.predict(data.test_features) == data.test_labels))


@pytest.fixture(scope="module")
def paired_accuracy():
    from scipy import stats

    rows = []
    for seed in SEEDS:
        data = get_dataset(DATASET, profile=PROFILE, seed=seed, prefer_real=False)
        mask16 = fit_accuracy(data, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Dropout, "_draw_keep_mask", float64_keep_mask)
            float64 = fit_accuracy(data, seed)
        rows.append({"seed": seed, "mask16": mask16, "float64": float64})

    differences = np.array([100.0 * (row["mask16"] - row["float64"]) for row in rows])
    mean = float(differences.mean())
    half_width = float(
        stats.t.ppf(0.975, len(rows) - 1) * differences.std(ddof=1) / math.sqrt(len(rows))
    )
    return {
        "config": {
            "dataset": DATASET, "profile": PROFILE, "dimension": DIMENSION,
            "levels": LEVELS, "epochs": EPOCHS, "seeds": [SEEDS.start, SEEDS.stop - 1],
        },
        "seeds": rows,
        "median_mask16": float(np.median([row["mask16"] for row in rows])),
        "median_float64": float(np.median([row["float64"] for row in rows])),
        "mean_difference_points": mean,
        "ci95_points": [mean - half_width, mean + half_width],
    }


def test_dropout_mask_accuracy_report(paired_accuracy):
    """Print the per-seed table and persist the JSON results."""
    result = paired_accuracy
    rows = [
        [str(row["seed"]), f"{row['mask16']:.4f}", f"{row['float64']:.4f}",
         f"{100 * (row['mask16'] - row['float64']):+.2f}"]
        for row in result["seeds"]
    ]
    low, high = result["ci95_points"]
    rows.append(["median", f"{result['median_mask16']:.4f}", f"{result['median_float64']:.4f}",
                 f"{100 * (result['median_mask16'] - result['median_float64']):+.2f}"])
    rows.append(["mean diff", "", "", f"{result['mean_difference_points']:+.2f} "
                 f"(95% CI {low:+.2f} to {high:+.2f})"])
    print_report(
        f"Dropout mask accuracy ({DATASET} {PROFILE}, D={DIMENSION}, {EPOCHS} epochs, "
        f"{len(result['seeds'])} seeds)",
        format_table(["seed", "16-bit mask", "float64 draw", "diff (points)"], rows),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "bench_dropout_mask_accuracy.json"), "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)


def test_medians_within_one_point(paired_accuracy):
    gap = 100 * abs(paired_accuracy["median_mask16"] - paired_accuracy["median_float64"])
    assert gap <= MAX_MEDIAN_GAP_POINTS, f"medians differ by {gap:.2f} points"


def test_paired_difference_ci_lower_end(paired_accuracy):
    low = paired_accuracy["ci95_points"][0]
    assert low >= MIN_CI_LOWER_POINTS, f"95% CI lower end {low:+.2f} points"
