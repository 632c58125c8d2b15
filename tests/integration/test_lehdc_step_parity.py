"""LeHDC training is bit-identical to the pre-change encoder, BNN step and loops.

The record encoder evaluates Eq. 1 as a grouped GEMM, the loss flushes
subnormal gradient entries, the backward pass no longer computes the input
gradient or pushes it through dropout, and the trainer keeps its split in
int8 with ``Dropout`` writing each masked batch in float32.  None of that may
move a bit of the result: on seeded Table 2 configurations the encodings,
latent weights, class hypervectors and per-epoch history must equal those of
the dense per-feature loop and the pre-change step in ``tests/reference.py``
run on a float32 copy of the split.  The one intended change, the 16-bit
dropout mask, is swapped for the pre-change float64 draw on the fast side;
everything else runs as shipped.  Each configuration also checks that its
reference gradients really contained subnormals, so the flush is exercised,
not bypassed.

Non-binary LeHDC trains through the same ``BNNTrainer.train`` over a
real-weight network; on the same configurations it must equal its own
pre-change epoch loop (``reference.ReferenceNonBinaryLeHDC``) bit for bit.
"""

import functools

import numpy as np
import pytest

import repro.core.bnn_model as bnn_model
from reference import (
    ReferenceNonBinaryLeHDC,
    count_subnormals,
    dense_record_accumulate,
    float64_keep_mask,
    reference_bnn_backward,
    reference_clip_after_step,
    reference_cross_entropy,
    reference_dropout_backward,
    reference_dropout_forward,
)
from repro.core.configs import PAPER_CONFIGS
from repro.core.lehdc import LeHDCClassifier
from repro.core.nonbinary_lehdc import NonBinaryLeHDCClassifier
from repro.datasets.registry import get_dataset
from repro.hdc.encoders import RecordEncoder
from repro.hdc.hypervector import sign_with_ties
from repro.nn.layers import Dropout

#: (dataset, profile, dimension, epochs, seed, config overrides)
CONFIGURATIONS = {
    "fashion_mnist-table2": ("fashion_mnist", "tiny", 4000, 20, 1, {}),
    "fashion_mnist-validation": (
        "fashion_mnist", "tiny", 2000, 20, 2, {"validation_fraction": 0.2},
    ),
    "ucihar-table2": ("ucihar", "tiny", 2000, 10, 3, {}),
    "isolet-unclipped": ("isolet", "tiny", 2000, 10, 4, {"latent_clip": None}),
    "pamap-table2": ("pamap", "tiny", 2000, 10, 5, {}),
    "pamap-coupled-weight-decay": (
        "pamap", "tiny", 2000, 10, 6, {"decoupled_weight_decay": False},
    ),
    "isolet-no-lr-decay": ("isolet", "tiny", 2000, 10, 7, {"lr_decay_factor": 1.0}),
}


@functools.lru_cache(maxsize=None)
def encode(dataset, profile, dimension, seed):
    """The training split encoded by ``RecordEncoder`` and by the dense loop."""
    data = get_dataset(dataset, profile=profile, seed=seed, prefer_real=False)
    encoder = RecordEncoder(
        dimension=dimension, num_levels=16, tie_break="positive", seed=seed
    ).fit(data.train_features)
    dense = sign_with_ties(
        dense_record_accumulate(
            encoder.position_memory.vectors,
            encoder.level_memory.vectors,
            encoder._quantizer.transform(data.train_features),
        ),
        tie_break="positive",
    )
    return encoder.encode(data.train_features), dense, data.train_labels


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_fit_matches_pre_change_step(name, monkeypatch):
    dataset, profile, dimension, epochs, seed, overrides = CONFIGURATIONS[name]
    config = PAPER_CONFIGS[dataset].with_overrides(**overrides)
    hypervectors, dense_hypervectors, labels = encode(dataset, profile, dimension, seed)
    np.testing.assert_array_equal(hypervectors, dense_hypervectors)

    assert hypervectors.dtype == np.int8
    with monkeypatch.context() as patch:
        patch.setattr(Dropout, "_draw_keep_mask", float64_keep_mask)
        fitted = LeHDCClassifier(config, seed=seed).fit(
            hypervectors, labels, epochs=epochs
        )

    subnormals = []

    def counting_cross_entropy(logits, batch_labels):
        loss, grad = reference_cross_entropy(logits, batch_labels)
        subnormals.append(count_subnormals(grad))
        return loss, grad

    monkeypatch.setattr(bnn_model, "cross_entropy_from_logits", counting_cross_entropy)
    monkeypatch.setattr(bnn_model.SingleLayerBNN, "backward", reference_bnn_backward)
    monkeypatch.setattr(bnn_model.SingleLayerBNN, "after_step", reference_clip_after_step)
    monkeypatch.setattr(Dropout, "forward", reference_dropout_forward)
    monkeypatch.setattr(Dropout, "backward", reference_dropout_backward)
    reference = LeHDCClassifier(config, seed=seed).fit(
        dense_hypervectors.astype(np.float32), labels, epochs=epochs
    )

    assert sum(subnormals) > 0, "the reference gradients held no subnormals"
    np.testing.assert_array_equal(
        fitted.latent_class_hypervectors_, reference.latent_class_hypervectors_
    )
    np.testing.assert_array_equal(fitted.class_hypervectors_, reference.class_hypervectors_)
    assert fitted.history_.train_loss == reference.history_.train_loss
    assert fitted.history_.train_accuracy == reference.history_.train_accuracy
    assert fitted.history_.validation_accuracy == reference.history_.validation_accuracy
    assert fitted.history_.learning_rate == reference.history_.learning_rate
    assert fitted.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_nonbinary_fit_matches_pre_change_loop(name):
    dataset, profile, dimension, epochs, seed, overrides = CONFIGURATIONS[name]
    config = PAPER_CONFIGS[dataset].with_overrides(**overrides)
    hypervectors, _, labels = encode(dataset, profile, dimension, seed)
    fitted = NonBinaryLeHDCClassifier(config, seed=seed).fit(
        hypervectors, labels, epochs=epochs
    )

    reference = ReferenceNonBinaryLeHDC(config, seed=seed)
    train, train_labels, validation = hypervectors, labels, {}
    if config.validation_fraction > 0:
        # The pre-change loop ignored validation_fraction: carve the same
        # split from its RNG and hand it over explicitly.
        train, train_labels, held_out, held_out_labels = (
            LeHDCClassifier._split_validation(reference, hypervectors, labels)
        )
        validation = dict(
            validation_hypervectors=held_out, validation_labels=held_out_labels
        )
    reference.fit(train, train_labels, epochs=epochs, **validation)

    np.testing.assert_array_equal(
        fitted.nonbinary_class_hypervectors_, reference.nonbinary_class_hypervectors_
    )
    np.testing.assert_array_equal(fitted.class_hypervectors_, reference.class_hypervectors_)
    assert fitted.history_.train_loss == reference.history_.train_loss
    assert fitted.history_.train_accuracy == reference.history_.train_accuracy
    assert fitted.history_.validation_accuracy == reference.history_.validation_accuracy
    assert len(fitted.history_.validation_accuracy) == (epochs if validation else 0)
    assert fitted.history_.learning_rate == reference.history_.learning_rate
    assert fitted.rng.bit_generator.state == reference.rng.bit_generator.state


@pytest.mark.parametrize("classifier", [LeHDCClassifier, NonBinaryLeHDCClassifier])
def test_fit_never_runs_dropout_backward(classifier, encoded_problem, monkeypatch):
    """The dropped-out input is encoded data: no gradient flows back into it."""
    calls = []
    monkeypatch.setattr(Dropout, "backward", lambda self, grad: calls.append(grad))
    config = PAPER_CONFIGS["ucihar"].with_overrides(epochs=2)
    classifier(config, seed=0).fit(
        encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
    )
    assert calls == []
