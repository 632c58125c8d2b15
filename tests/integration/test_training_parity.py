"""Packed training must match the seed's sequential training loops bit for bit.

The packed training paths (epoch scoring over packed words + ordered
scatter-add for the retraining family; incremental packed scoring for the
multi-model ensemble — ``repro.kernels.train``) are *re-implementations* of
the seed's per-sample loops, which ``tests/reference.py`` keeps as the
``Sequential*`` reference classifiers.  With the same seed they must produce
an identical :class:`~repro.classifiers.retraining.RetrainingHistory`,
identical binary class hypervectors / model banks, identical float
accumulators and an identical RNG stream (every permutation, bootstrap
choice, flip choice and ``sgn(0)`` tie draw replays in order) — with and
without shuffling (the scatter-add replays the visit order, so even the
shuffled trajectories coincide draw for draw).

The retraining and ensemble parity cases train on 20 % label noise
(``noisy_ensemble_problem``): on the clean fixture every sample is already
classified correctly, no update ever fires, and a wrong update order would
go unnoticed.
"""

import numpy as np
import pytest

import reference
from repro.classifiers.adapthd import AdaptHDC
from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.enhanced import EnhancedRetrainingHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.retraining import RetrainingHDC
from repro.hdc.hypervector import random_hypervectors
from repro.kernels.train import PackedTrainingSet

#: name -> (classifier, its seed-loop reference, constructor arguments)
RETRAINING_CASES = {
    "retraining": (
        RetrainingHDC,
        reference.SequentialRetrainingHDC,
        dict(iterations=6, epsilon=0.0, seed=3),
    ),
    "adapthd-data": (
        AdaptHDC,
        reference.SequentialAdaptHDC,
        dict(iterations=5, mode="data", seed=4),
    ),
    "adapthd-iteration": (
        AdaptHDC,
        reference.SequentialAdaptHDC,
        dict(iterations=5, mode="iteration", seed=5),
    ),
    "enhanced": (
        EnhancedRetrainingHDC,
        reference.SequentialEnhancedRetrainingHDC,
        dict(iterations=5, epsilon=0.0, seed=6),
    ),
}


def make_retraining(name, sequential=False, **overrides):
    packed_cls, sequential_cls, kwargs = RETRAINING_CASES[name]
    return (sequential_cls if sequential else packed_cls)(**dict(kwargs, **overrides))


#: name -> factory for each classifier whose training is packed-only
PACKED_ONLY_TRAINERS = {
    "retraining": lambda: RetrainingHDC(iterations=2, seed=11),
    "adapthd": lambda: AdaptHDC(iterations=2, seed=11),
    "enhanced": lambda: EnhancedRetrainingHDC(iterations=2, seed=11),
    "multimodel": lambda: MultiModelHDC(models_per_class=2, iterations=1, seed=11),
}


@pytest.fixture(scope="module")
def noisy_ensemble_problem(encoded_problem):
    """The encoded problem with 20% label noise mixed into the training split.

    The clean fixture is separable enough that every strategy classifies
    every training sample correctly from the start, so neither the
    retraining updates nor the ensemble's stochastic flips ever fire; noisy
    labels keep a steady share of samples misclassified so the parity tests
    actually exercise the ordered scatter-add, the flip updates and the
    incremental score-column maintenance.
    """
    rng = np.random.default_rng(77)
    labels = np.array(encoded_problem["train_labels"])
    flips = rng.random(labels.size) < 0.2
    num_classes = encoded_problem["num_classes"]
    labels[flips] = (
        labels[flips] + rng.integers(1, num_classes, size=int(flips.sum()))
    ) % num_classes
    return {
        "hypervectors": encoded_problem["train_hypervectors"],
        "labels": labels,
        "test_hypervectors": encoded_problem["test_hypervectors"],
        "test_labels": encoded_problem["test_labels"],
    }


def assert_same_training(packed_model, sequential_model, expect_validation=False):
    packed_history = packed_model.history_
    sequential_history = sequential_model.history_
    assert packed_history.train_accuracy == sequential_history.train_accuracy
    assert packed_history.update_fraction == sequential_history.update_fraction
    assert packed_history.test_accuracy == sequential_history.test_accuracy
    if expect_validation:
        assert packed_history.test_accuracy  # trajectories were recorded
    np.testing.assert_array_equal(
        packed_model.class_hypervectors_, sequential_model.class_hypervectors_
    )
    np.testing.assert_array_equal(
        packed_model.nonbinary_class_hypervectors_,
        sequential_model.nonbinary_class_hypervectors_,
    )


class TestRetrainingPackedParity:
    @pytest.mark.parametrize("name", sorted(RETRAINING_CASES))
    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("tie_break", ["random", "positive"])
    def test_identical_history_model_and_rng_stream(
        self, noisy_ensemble_problem, name, shuffle, tie_break
    ):
        fit_args = (noisy_ensemble_problem["hypervectors"], noisy_ensemble_problem["labels"])
        packed_model = make_retraining(name, shuffle=shuffle, tie_break=tie_break)
        sequential_model = make_retraining(
            name, sequential=True, shuffle=shuffle, tie_break=tie_break
        )
        packed_model.fit(*fit_args)
        sequential_model.fit(*fit_args)
        assert_same_training(packed_model, sequential_model)
        # Updates must actually have fired, or this test proves nothing.
        assert any(value > 0 for value in packed_model.history_.update_fraction)
        # Same draws in the same order leave the generators in the same state.
        assert (
            packed_model.rng.bit_generator.state
            == sequential_model.rng.bit_generator.state
        )

    @pytest.mark.parametrize("name", sorted(RETRAINING_CASES))
    def test_identical_validation_trajectory(self, noisy_ensemble_problem, name):
        fit_kwargs = dict(
            validation_hypervectors=noisy_ensemble_problem["test_hypervectors"],
            validation_labels=noisy_ensemble_problem["test_labels"],
        )
        fit_args = (noisy_ensemble_problem["hypervectors"], noisy_ensemble_problem["labels"])
        packed_model = make_retraining(name).fit(*fit_args, **fit_kwargs)
        sequential_model = make_retraining(name, sequential=True).fit(
            *fit_args, **fit_kwargs
        )
        assert_same_training(packed_model, sequential_model, expect_validation=True)

    @pytest.mark.parametrize("name", sorted(RETRAINING_CASES))
    def test_unpackable_validation_split_matches_reference(
        self, noisy_ensemble_problem, name
    ):
        """A validation split with zero entries cannot be packed; it is scored
        densely after each pass, and the trajectory still matches the seed loop."""
        validation = np.array(noisy_ensemble_problem["test_hypervectors"], dtype=np.int8)
        validation[np.random.default_rng(21).random(validation.shape) < 0.1] = 0
        validation_labels = noisy_ensemble_problem["test_labels"]
        fit_kwargs = dict(
            validation_hypervectors=validation, validation_labels=validation_labels
        )
        fit_args = (noisy_ensemble_problem["hypervectors"], noisy_ensemble_problem["labels"])
        packed_model = make_retraining(name).fit(*fit_args, **fit_kwargs)
        sequential_model = make_retraining(name, sequential=True).fit(
            *fit_args, **fit_kwargs
        )
        assert_same_training(packed_model, sequential_model, expect_validation=True)
        # The last entry scores the model that fit() leaves behind.
        assert packed_model.history_.test_accuracy[-1] == packed_model.score(
            validation, validation_labels
        )

    def test_early_stop_iteration_count_matches(self, encoded_problem):
        for classifier in (RetrainingHDC, reference.SequentialRetrainingHDC):
            model = classifier(iterations=50, epsilon=1.0, seed=8).fit(
                encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
            )
            assert model.history_.iterations <= 2

    def test_shuffled_runs_reach_statistical_parity(self, encoded_problem):
        """Different visit orders (different seeds) agree within tolerance.

        Bit-identity above covers same-seed runs; this documents that the
        packed path's *statistical* behaviour under shuffling matches the
        sequential loop across seeds, which is what sweep aggregates rely on.
        """
        packed_final = [
            RetrainingHDC(iterations=5, epsilon=0.0, shuffle=True, seed=seed)
            .fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
            .history_.train_accuracy[-1]
            for seed in range(3)
        ]
        sequential_final = [
            reference.SequentialRetrainingHDC(
                iterations=5, epsilon=0.0, shuffle=True, seed=seed + 100
            )
            .fit(encoded_problem["train_hypervectors"], encoded_problem["train_labels"])
            .history_.train_accuracy[-1]
            for seed in range(3)
        ]
        assert abs(np.mean(packed_final) - np.mean(sequential_final)) < 0.05

    @pytest.mark.parametrize("name", sorted(RETRAINING_CASES))
    def test_shared_packed_train_is_equivalent(self, encoded_problem, name):
        train_set = PackedTrainingSet.from_dense(encoded_problem["train_hypervectors"])
        with_shared = make_retraining(name).fit(
            encoded_problem["train_hypervectors"],
            encoded_problem["train_labels"],
            packed_train=train_set,
        )
        without_shared = make_retraining(name).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        assert_same_training(with_shared, without_shared)

    def test_packed_train_shape_mismatch_raises(self, encoded_problem):
        train_set = PackedTrainingSet.from_dense(
            encoded_problem["train_hypervectors"][:10]
        )
        with pytest.raises(ValueError, match="does not match"):
            RetrainingHDC(iterations=2, seed=10).fit(
                encoded_problem["train_hypervectors"],
                encoded_problem["train_labels"],
                packed_train=train_set,
            )

    def test_packed_train_content_mismatch_raises(self, encoded_problem):
        """Same shape but different data (e.g. the wrong split) is caught."""
        wrong_split = -encoded_problem["train_hypervectors"]
        train_set = PackedTrainingSet.from_dense(wrong_split)
        with pytest.raises(ValueError, match="content does not match"):
            RetrainingHDC(iterations=2, seed=10).fit(
                encoded_problem["train_hypervectors"],
                encoded_problem["train_labels"],
                packed_train=train_set,
            )

    def test_epoch_updates_is_the_update_hook(self, noisy_ensemble_problem):
        """A subclass changes the update rule by overriding ``_epoch_updates``."""

        class Frozen(RetrainingHDC):
            def _epoch_updates(self, scores, labels, predicted, visit, alpha, dimension):
                no_rows = np.empty(0, dtype=np.intp)
                return no_rows, np.empty(0), no_rows

        fit_args = (noisy_ensemble_problem["hypervectors"], noisy_ensemble_problem["labels"])
        settings = dict(iterations=3, epsilon=0.0, tie_break="positive", seed=12)
        baseline = BaselineHDC(tie_break="positive", seed=12).fit(*fit_args)
        frozen = Frozen(**settings).fit(*fit_args)
        assert frozen.history_.update_fraction == [0.0, 0.0, 0.0]
        np.testing.assert_array_equal(
            frozen.nonbinary_class_hypervectors_, baseline.accumulators_
        )
        eq3 = RetrainingHDC(**settings).fit(*fit_args)
        assert not np.array_equal(
            eq3.nonbinary_class_hypervectors_, baseline.accumulators_
        )

    def test_iteration_seconds_recorded_on_both_paths(self, encoded_problem):
        for classifier in (RetrainingHDC, reference.SequentialRetrainingHDC):
            model = classifier(iterations=3, epsilon=0.0, seed=13).fit(
                encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
            )
            seconds = model.history_.iteration_seconds
            assert len(seconds) == model.history_.iterations
            assert all(value >= 0.0 for value in seconds)


@pytest.mark.parametrize("name", list(PACKED_ONLY_TRAINERS))
def test_non_bipolar_training_input_raises(name):
    """Training is packed-only: ternary "hypervectors" are rejected up front."""
    rng = np.random.default_rng(0)
    hypervectors = rng.integers(-1, 2, size=(60, 128)).astype(np.int8)
    labels = rng.integers(0, 3, size=60)
    with pytest.raises(ValueError, match=r"\{\+1, -1\}"):
        PACKED_ONLY_TRAINERS[name]().fit(hypervectors, labels)


@pytest.mark.parametrize("name", list(PACKED_ONLY_TRAINERS))
def test_a_single_non_bipolar_entry_is_rejected(name):
    """The bipolar check reads every entry, not a sample of rows."""
    hypervectors = random_hypervectors(60, 128, seed=1)
    hypervectors[-1, -1] = 0
    labels = np.arange(60) % 3
    with pytest.raises(ValueError, match=r"\{\+1, -1\}"):
        PACKED_ONLY_TRAINERS[name]().fit(hypervectors, labels)


@pytest.mark.parametrize("name", list(PACKED_ONLY_TRAINERS))
def test_float_bipolar_input_trains_like_int8(noisy_ensemble_problem, name):
    """The requirement is on values, not dtype: ±1.0 floats train identically."""
    hypervectors = noisy_ensemble_problem["hypervectors"]
    labels = noisy_ensemble_problem["labels"]
    from_int8 = PACKED_ONLY_TRAINERS[name]().fit(hypervectors, labels)
    from_float = PACKED_ONLY_TRAINERS[name]().fit(hypervectors.astype(np.float64), labels)
    trained_state = (
        "model_hypervectors_" if name == "multimodel" else "nonbinary_class_hypervectors_"
    )
    np.testing.assert_array_equal(
        getattr(from_float, trained_state), getattr(from_int8, trained_state)
    )
    np.testing.assert_array_equal(
        from_float.class_hypervectors_, from_int8.class_hypervectors_
    )
    assert from_float.history_.train_accuracy == from_int8.history_.train_accuracy
    assert from_float.history_.update_fraction == from_int8.history_.update_fraction


class TestBaselinePackedParity:
    def test_bundle_packed_fit_matches_dense_fit(self, encoded_problem):
        train_set = PackedTrainingSet.from_dense(encoded_problem["train_hypervectors"])
        dense = BaselineHDC(seed=2).fit(
            encoded_problem["train_hypervectors"], encoded_problem["train_labels"]
        )
        packed = BaselineHDC(seed=2).fit(
            encoded_problem["train_hypervectors"],
            encoded_problem["train_labels"],
            packed_train=train_set,
        )
        np.testing.assert_array_equal(dense.accumulators_, packed.accumulators_)
        np.testing.assert_array_equal(
            dense.class_hypervectors_, packed.class_hypervectors_
        )

    def test_packed_train_shape_mismatch_raises(self, encoded_problem):
        train_set = PackedTrainingSet.from_dense(
            encoded_problem["train_hypervectors"][:10]
        )
        with pytest.raises(ValueError, match="does not match"):
            BaselineHDC(seed=2).fit(
                encoded_problem["train_hypervectors"],
                encoded_problem["train_labels"],
                packed_train=train_set,
            )

    def test_supports_packed_training_flags(self, encoded_problem):
        assert BaselineHDC().supports_packed_training()
        assert RetrainingHDC().supports_packed_training()
        assert AdaptHDC().supports_packed_training()
        assert EnhancedRetrainingHDC().supports_packed_training()
        assert MultiModelHDC().supports_packed_training()


class TestMultiModelPackedParity:
    """The ensemble's incremental packed trainer vs the seed per-sample loop."""

    @staticmethod
    def fit_both(problem, **settings):
        """Fit the packed ensemble and its seed-loop reference on *problem*."""
        fit_args = (problem["hypervectors"], problem["labels"])
        packed_model = MultiModelHDC(**settings).fit(*fit_args)
        sequential_model = reference.SequentialMultiModelHDC(**settings).fit(*fit_args)
        return packed_model, sequential_model

    @staticmethod
    def assert_same_ensemble(packed_model, sequential_model):
        np.testing.assert_array_equal(
            packed_model.model_hypervectors_, sequential_model.model_hypervectors_
        )
        np.testing.assert_array_equal(
            packed_model.class_hypervectors_, sequential_model.class_hypervectors_
        )
        assert (
            packed_model.history_.train_accuracy
            == sequential_model.history_.train_accuracy
        )
        assert (
            packed_model.history_.update_fraction
            == sequential_model.history_.update_fraction
        )
        # Updates must actually have fired, or this test proves nothing.
        assert any(value > 0 for value in packed_model.history_.update_fraction)
        # Same draws in the same order leave the generators in the same state.
        assert (
            packed_model.rng.bit_generator.state
            == sequential_model.rng.bit_generator.state
        )

    @pytest.mark.parametrize("push_away", [False, True])
    def test_identical_models_history_and_rng_stream(
        self, noisy_ensemble_problem, push_away
    ):
        self.assert_same_ensemble(
            *self.fit_both(
                noisy_ensemble_problem,
                models_per_class=4,
                iterations=3,
                push_away=push_away,
                seed=31,
            )
        )

    @pytest.mark.parametrize("push_away", [False, True])
    @pytest.mark.parametrize(
        "models_per_class, flip_fraction",
        [(1, 0.02), (3, 1.0)],
        ids=["one-model-per-class", "flip-every-bit"],
    )
    def test_edge_settings_match_reference(
        self, noisy_ensemble_problem, models_per_class, flip_fraction, push_away
    ):
        """One sub-model per class, and updates that flip every candidate bit
        (each patched score column then spans the whole flipped mask)."""
        self.assert_same_ensemble(
            *self.fit_both(
                noisy_ensemble_problem,
                models_per_class=models_per_class,
                iterations=2,
                flip_fraction=flip_fraction,
                push_away=push_away,
                seed=32,
            )
        )

    def test_shared_packed_train_is_equivalent(self, noisy_ensemble_problem):
        train_set = PackedTrainingSet.from_dense(
            noisy_ensemble_problem["hypervectors"]
        )
        with_shared = MultiModelHDC(models_per_class=3, iterations=2, seed=5).fit(
            noisy_ensemble_problem["hypervectors"],
            noisy_ensemble_problem["labels"],
            packed_train=train_set,
        )
        without_shared = MultiModelHDC(models_per_class=3, iterations=2, seed=5).fit(
            noisy_ensemble_problem["hypervectors"], noisy_ensemble_problem["labels"]
        )
        np.testing.assert_array_equal(
            with_shared.model_hypervectors_, without_shared.model_hypervectors_
        )

    def test_packed_train_content_mismatch_raises(self, noisy_ensemble_problem):
        wrong_split = -noisy_ensemble_problem["hypervectors"]
        train_set = PackedTrainingSet.from_dense(wrong_split)
        with pytest.raises(ValueError, match="content does not match"):
            MultiModelHDC(models_per_class=2, iterations=1, seed=8).fit(
                noisy_ensemble_problem["hypervectors"],
                noisy_ensemble_problem["labels"],
                packed_train=train_set,
            )

    def test_iteration_seconds_recorded_on_both_paths(self, noisy_ensemble_problem):
        for classifier in (MultiModelHDC, reference.SequentialMultiModelHDC):
            model = classifier(models_per_class=2, iterations=2, seed=9).fit(
                noisy_ensemble_problem["hypervectors"],
                noisy_ensemble_problem["labels"],
            )
            seconds = model.history_.iteration_seconds
            assert len(seconds) == model.history_.iterations == 2
            assert all(value >= 0.0 for value in seconds)
