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

Every cell varies :func:`repro.core.configs.reproduction_config`, the
recipe Table 1 trains by.  Each grid is one
:func:`repro.eval.experiment.run_strategy_comparison` call whose strategies
are its cells, so the dataset is encoded and packed once per grid, however
many cells run on it; every cell trains at the one seed :data:`GRID_SEED`,
so cells differ only by configuration.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    BENCH_DIMENSION,
    BENCH_LEHDC_EPOCHS,
    BENCH_PROFILE,
    print_report,
)
from repro.core.configs import PAPER_CONFIGS, reproduction_config
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.registry import get_dataset
from repro.eval.experiment import run_strategy_comparison
from repro.eval.tables import format_table

GRID_DATASET = "ucihar"
GRID_SEED = 22
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
def grid_data():
    """The one dataset split every grid below trains on."""
    return get_dataset(GRID_DATASET, profile=BENCH_PROFILE, seed=GRID_SEED)


def _accuracy_grid(data, configs):
    """Test accuracy of one LeHDC per config cell, all on one encoding of *data*."""
    cells = {
        str(key): (lambda seed, config=config: LeHDCClassifier(config=config, seed=GRID_SEED))
        for key, config in configs.items()
    }
    result = run_strategy_comparison(
        dataset=data,
        strategies=cells,
        dimension=BENCH_DIMENSION,
        num_levels=32,
        repetitions=1,
        seed=GRID_SEED,
    )
    return {key: result.strategies[str(key)].test_accuracies[0] for key in configs}


def test_table2_regularisation_grid(benchmark, grid_data):
    """Weight-decay x dropout grid around the paper's UCIHAR/ISOLET/PAMAP row."""
    base = reproduction_config(GRID_DATASET, BENCH_LEHDC_EPOCHS)

    def run():
        configs = {
            (weight_decay, dropout_rate): base.with_overrides(
                weight_decay=weight_decay, dropout_rate=dropout_rate
            )
            for weight_decay in WEIGHT_DECAYS
            for dropout_rate in DROPOUT_RATES
        }
        return _accuracy_grid(grid_data, configs)

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


def test_table2_latent_clip_and_decay_ablation(benchmark, grid_data):
    """Latent clipping and coupled/decoupled weight decay ablations."""
    base = reproduction_config(GRID_DATASET, BENCH_LEHDC_EPOCHS)
    variants = {
        "clip=1.0, decoupled WD": base,
        "no clip, decoupled WD": base.with_overrides(latent_clip=None),
        "clip=1.0, coupled WD": base.with_overrides(decoupled_weight_decay=False),
    }

    def run():
        return _accuracy_grid(grid_data, variants)

    accuracies = benchmark.pedantic(run, rounds=1, iterations=1)
    print_report(
        f"Design-choice ablation on {GRID_DATASET}",
        "\n".join(f"{name:26s} {accuracy:.4f}" for name, accuracy in accuracies.items()),
    )
    # All variants must train to a sensible accuracy; the default must be
    # within a small margin of the best variant.
    assert all(accuracy > 0.6 for accuracy in accuracies.values())
    assert accuracies["clip=1.0, decoupled WD"] >= max(accuracies.values()) - 0.05
