"""Integration tests of the Fig. 5 ablation mechanics and other design choices.

Fig. 5's full claim (dropout + weight decay give the best *test* accuracy) is
statistical and needs benchmark-scale runs; at test scale we verify the
mechanisms behave as designed: regularisation lowers (or at least does not
raise) the training fit, configurations are plumbed through, and the design
choices the configuration keeps (latent clipping, the weight-decay form) all
train.
"""

import numpy as np

from repro.core.configs import LeHDCConfig
from repro.core.lehdc import LeHDCClassifier


def fit_and_measure(encoded_problem, config, seed=0):
    model = LeHDCClassifier(config=config, seed=seed)
    model.fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
    train_accuracy = model.score(
        encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
    )
    test_accuracy = model.score(
        encoded_problem["test_hypervectors"], encoded_problem["test_labels"]
    )
    return model, train_accuracy, test_accuracy


BASE = LeHDCConfig(epochs=20, batch_size=32, learning_rate=0.01, dropout_rate=0.0, weight_decay=0.0)


class TestFig5Mechanics:
    def test_heavy_dropout_reduces_training_fit(self, encoded_problem):
        _, plain_train, _ = fit_and_measure(encoded_problem, BASE, seed=0)
        heavy = BASE.with_overrides(dropout_rate=0.8)
        _, dropout_train, _ = fit_and_measure(encoded_problem, heavy, seed=0)
        assert dropout_train <= plain_train + 0.02

    def test_all_regularised_variants_stay_above_chance(self, encoded_problem):
        variants = {
            "with_both": BASE.with_overrides(dropout_rate=0.5, weight_decay=0.05),
            "without_dropout": BASE.with_overrides(dropout_rate=0.0, weight_decay=0.05),
            "without_weight_decay": BASE.with_overrides(dropout_rate=0.5, weight_decay=0.0),
        }
        for config in variants.values():
            _, _, test_accuracy = fit_and_measure(encoded_problem, config, seed=1)
            assert test_accuracy > 0.5


class TestDesignChoiceAblations:
    def test_latent_clip_on_and_off_both_train(self, encoded_problem):
        for clip in (1.0, None):
            config = BASE.with_overrides(latent_clip=clip, epochs=10)
            model, train_accuracy, _ = fit_and_measure(encoded_problem, config, seed=2)
            assert train_accuracy > 0.5
            if clip is not None:
                assert np.all(np.abs(model.latent_class_hypervectors_) <= clip + 1e-9)

    def test_coupled_and_decoupled_weight_decay_both_train(self, encoded_problem):
        for decoupled in (True, False):
            config = BASE.with_overrides(
                weight_decay=0.05, decoupled_weight_decay=decoupled, epochs=10
            )
            _, train_accuracy, _ = fit_and_measure(encoded_problem, config, seed=3)
            assert train_accuracy > 0.5
