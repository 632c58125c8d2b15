"""Table 2 — LeHDC hyper-parameter configurations and their sensitivity.

Table 2 itself is a configuration table (weight decay, learning rate, batch
size, dropout rate, epochs per dataset); it is encoded verbatim in
:data:`repro.core.configs.PAPER_CONFIGS`.  This benchmark (a) prints that
table for the record, and (b) runs the sensitivity / ablation studies around
it:

* a small grid over weight decay x dropout rate on one dataset, showing the
  paper's chosen cell is at (or near) the best test accuracy;
* the latent-clipping ablation (BinaryConnect-style clip vs the paper's
  unclipped latent weights bounded by weight decay);
* coupled vs decoupled weight decay (Eq. 10 literal vs AdamW-style).

Every grid/ablation cell is fitted through
:func:`repro.eval.sweep.run_fit_grid` on one shared
:class:`repro.eval.sweep.PackedSplits`: the dataset is encoded and packed
exactly once per module, no matter how many hyper-parameter cells run on it.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    BENCH_DIMENSION,
    BENCH_LEHDC_EPOCHS,
    BENCH_PROFILE,
    print_report,
)
from repro.core.configs import PAPER_CONFIGS, get_paper_config
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.registry import get_dataset
from repro.eval.sweep import PackedSplits, run_fit_grid
from repro.eval.tables import format_table
from repro.hdc.encoders import RecordEncoder

GRID_DATASET = "ucihar"
WEIGHT_DECAYS = (0.0, 0.05)
DROPOUT_RATES = (0.0, 0.5)


def test_table2_configurations_printed(benchmark):
    """Print the Table 2 configuration verbatim (pure bookkeeping, no training)."""

    def render():
        rows = [
            [
                name,
                config.weight_decay,
                config.learning_rate,
                config.batch_size,
                config.dropout_rate,
                config.epochs,
            ]
            for name, config in PAPER_CONFIGS.items()
        ]
        return format_table(
            ["dataset", "WD", "LR", "B", "DR", "epochs"], rows, title="Table 2 (paper values)"
        )

    table = benchmark.pedantic(render, rounds=1, iterations=1)
    print_report("Table 2 — LeHDC hyper-parameters", table)
    assert "fashion_mnist" in table


@pytest.fixture(scope="module")
def grid_splits():
    """One encoded + packed split pair shared by every grid cell below."""
    data = get_dataset(GRID_DATASET, profile=BENCH_PROFILE, seed=22)
    encoder = RecordEncoder(dimension=BENCH_DIMENSION, num_levels=32, seed=22)
    return PackedSplits.from_dataset(data, encoder)


def _accuracy_grid(splits, configs, seed=22):
    """Fit one LeHDC per config cell on the shared packed split."""
    cells = {
        key: (lambda config=config: LeHDCClassifier(config=config, seed=seed))
        for key, config in configs.items()
    }
    return {
        key: cell.test_accuracy for key, cell in run_fit_grid(splits, cells).items()
    }


def test_table2_regularisation_grid(benchmark, grid_splits):
    """Weight-decay x dropout grid around the paper's UCIHAR/ISOLET/PAMAP row."""
    base = get_paper_config(GRID_DATASET).with_overrides(
        epochs=BENCH_LEHDC_EPOCHS, batch_size=64, learning_rate=0.01
    )

    def run():
        configs = {
            (weight_decay, dropout_rate): base.with_overrides(
                weight_decay=weight_decay, dropout_rate=dropout_rate
            )
            for weight_decay in WEIGHT_DECAYS
            for dropout_rate in DROPOUT_RATES
        }
        return _accuracy_grid(grid_splits, configs)

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [weight_decay, dropout_rate, f"{accuracy:.4f}"]
        for (weight_decay, dropout_rate), accuracy in sorted(grid.items())
    ]
    print_report(
        f"Table 2 sensitivity — weight decay x dropout on {GRID_DATASET}",
        format_table(["weight decay", "dropout", "test accuracy"], rows),
    )
    # The paper's regularised cell must be competitive with the best cell.
    paper_cell = grid[(0.05, 0.5)]
    assert paper_cell >= max(grid.values()) - 0.03


def test_table2_latent_clip_and_decay_ablation(benchmark, grid_splits):
    """Latent clipping and coupled/decoupled weight decay ablations."""
    base = get_paper_config(GRID_DATASET).with_overrides(
        epochs=BENCH_LEHDC_EPOCHS, batch_size=64, learning_rate=0.01
    )
    variants = {
        "clip=1.0, decoupled WD": base,
        "no clip, decoupled WD": base.with_overrides(latent_clip=None),
        "clip=1.0, coupled WD": base.with_overrides(decoupled_weight_decay=False),
    }

    def run():
        return _accuracy_grid(grid_splits, variants)

    accuracies = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(
        f"Design-choice ablation on {GRID_DATASET}",
        "\n".join(f"{name:26s} {accuracy:.4f}" for name, accuracy in accuracies.items()),
    )
    # All variants must train to a sensible accuracy; the default must be
    # within a small margin of the best variant.
    assert all(accuracy > 0.6 for accuracy in accuracies.values())
    assert accuracies["clip=1.0, decoupled WD"] >= max(accuracies.values()) - 0.05
