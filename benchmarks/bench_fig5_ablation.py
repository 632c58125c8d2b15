"""Figure 5 — the weight-decay / dropout ablation on CIFAR-10.

The paper trains LeHDC on CIFAR-10 three ways — with both weight decay and
dropout, without dropout, and without weight decay — and plots training and
testing accuracy per epoch.  The headline observation: the fully regularised
model has the *lowest training* accuracy but the *highest testing* accuracy
(both regularisers combat the over-fitting caused by the very wide single
layer), and this benchmark checks that ordering at scaled-down size.
"""

from __future__ import annotations


from benchmarks.conftest import (
    BENCH_DIMENSION,
    BENCH_LEHDC_EPOCHS,
    BENCH_PROFILE,
    print_report,
)
from repro.core.configs import reproduction_config
from repro.core.lehdc import LeHDCClassifier
from repro.datasets.registry import get_dataset
from repro.eval.figures import TrajectorySeries, render_trajectories
from repro.hdc.encoders import RecordEncoder

FIG5_DATASET = "cifar10"
FIG5_EPOCHS = max(BENCH_LEHDC_EPOCHS, 40)


def fig5_variants():
    """The three regularisation variants of Fig. 5, around the reproduction recipe."""
    paper = reproduction_config(FIG5_DATASET, FIG5_EPOCHS)
    return {
        "with both": paper,
        "without dropout": paper.with_overrides(dropout_rate=0.0),
        "without weight decay": paper.with_overrides(weight_decay=0.0),
    }


def run_fig5():
    data = get_dataset(FIG5_DATASET, profile=BENCH_PROFILE, seed=5)
    encoder = RecordEncoder(dimension=BENCH_DIMENSION, num_levels=32, seed=5)
    encoder.fit(data.train_features)
    train_encoded = encoder.encode(data.train_features)
    test_encoded = encoder.encode(data.test_features)

    histories = {}
    final_test = {}
    for name, config in fig5_variants().items():
        model = LeHDCClassifier(config=config, seed=5)
        model.fit(
            train_encoded,
            data.train_labels,
            validation_hypervectors=test_encoded,
            validation_labels=data.test_labels,
        )
        histories[name] = model.history_
        final_test[name] = model.score(test_encoded, data.test_labels)
    return histories, final_test


def test_fig5_weight_decay_dropout_ablation(benchmark):
    histories, final_test = benchmark.pedantic(run_fig5, rounds=1, iterations=1)

    epochs = list(range(1, FIG5_EPOCHS + 1))
    train_series = [
        TrajectorySeries(name, epochs, history.train_accuracy)
        for name, history in histories.items()
    ]
    test_series = [
        TrajectorySeries(name, epochs, history.validation_accuracy)
        for name, history in histories.items()
    ]
    print_report(
        f"Figure 5(a) — LeHDC training accuracy on {FIG5_DATASET} "
        f"(D={BENCH_DIMENSION}, {FIG5_EPOCHS} epochs, profile={BENCH_PROFILE})",
        render_trajectories(train_series, x_label="epoch"),
    )
    print_report(
        f"Figure 5(b) — LeHDC testing accuracy on {FIG5_DATASET}",
        render_trajectories(test_series, x_label="epoch"),
    )
    print_report(
        "Figure 5 — final test accuracy per variant",
        "\n".join(f"{name:22s} {accuracy:.4f}" for name, accuracy in final_test.items()),
    )

    # Shape checks from the paper: the fully regularised variant has the best
    # (or tied-best) final test accuracy, and its training accuracy does not
    # exceed the unregularised variants by the end of training.
    best_variant = max(final_test, key=final_test.get)
    assert final_test["with both"] >= final_test[best_variant] - 0.02
    assert (
        histories["with both"].train_accuracy[-1]
        <= max(
            histories["without dropout"].train_accuracy[-1],
            histories["without weight decay"].train_accuracy[-1],
        )
        + 0.02
    )
