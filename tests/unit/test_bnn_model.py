"""Unit tests for repro.core.bnn_model."""

import numpy as np
import pytest

from repro.core.bnn_model import (
    BNNTrainer,
    SingleLayerBNN,
    SingleLayerNetwork,
    TrainingHistory,
)
from repro.core.configs import LeHDCConfig
from repro.hdc.hypervector import random_hypervectors
from repro.nn.layers import Linear


def make_toy_task(num_samples=120, dimension=256, num_classes=3, seed=0):
    """Linearly separable bipolar task: class prototypes plus bit noise."""
    rng = np.random.default_rng(seed)
    prototypes = random_hypervectors(num_classes, dimension, seed=rng)
    labels = rng.integers(0, num_classes, size=num_samples)
    samples = prototypes[labels].astype(np.int8).copy()
    flip_mask = rng.random((num_samples, dimension)) < 0.15
    samples[flip_mask] *= -1
    return samples, labels.astype(np.int64)


class TestSingleLayerBNN:
    def test_forward_shape(self):
        model = SingleLayerBNN(dimension=128, num_classes=4, dropout_rate=0.0, seed=0)
        outputs = model.forward(np.ones((5, 128)))
        assert outputs.shape == (5, 4)

    def test_class_hypervectors_shape_and_values(self):
        model = SingleLayerBNN(dimension=64, num_classes=3, seed=1)
        hypervectors = model.class_hypervectors
        assert hypervectors.shape == (3, 64)
        assert set(np.unique(hypervectors)) <= {-1, 1}

    def test_latent_hypervectors_match_transpose(self):
        model = SingleLayerBNN(dimension=32, num_classes=2, seed=2)
        np.testing.assert_array_equal(
            model.latent_class_hypervectors, model.linear.weight.value.T
        )

    def test_eval_disables_dropout(self):
        model = SingleLayerBNN(dimension=64, num_classes=2, dropout_rate=0.9, seed=3)
        model.eval()
        inputs = np.ones((1, 64))
        first = model.forward(inputs)
        second = model.forward(inputs)
        np.testing.assert_array_equal(first, second)

    def test_after_step_clips_latent_weights(self):
        model = SingleLayerBNN(dimension=8, num_classes=2, latent_clip=0.5, seed=4)
        model.linear.weight.value[:] = 3.0
        model.after_step()
        assert np.all(model.linear.weight.value == 0.5)

    def test_predict_uses_binary_weights_with_dropout_off(self):
        model = SingleLayerBNN(dimension=64, num_classes=3, dropout_rate=0.9, seed=5)
        queries = np.where(np.random.default_rng(5).random((20, 64)) < 0.5, -1, 1)
        expected = np.argmax(queries @ model.linear.binary_weight, axis=1)
        np.testing.assert_array_equal(model.predict(queries.astype(np.int8)), expected)
        # Validation between epochs hands a training-mode model back.
        assert model.training and model.dropout.training


class TestSingleLayerNetwork:
    """The real-weight network of non-binary HDC (footnote 1)."""

    def test_after_step_leaves_real_weights_alone(self):
        model = SingleLayerNetwork(Linear(8, 2, seed=0), dropout_rate=0.0, seed=0)
        model.linear.weight.value[:] = 3.0
        model.after_step()
        assert np.all(model.linear.weight.value == 3.0)

    def test_predict_is_cosine_not_dot_product(self):
        model = SingleLayerNetwork(Linear(2, 2, seed=0), dropout_rate=0.5, seed=0)
        # Class 0 points exactly along the query, class 1 is longer but off
        # axis: the dot product prefers class 1, cosine similarity class 0.
        # Weight columns are the classes: class 0 = (1, 0), class 1 = (10, 5).
        model.linear.weight.value[:] = np.array([[1.0, 10.0], [0.0, 5.0]])
        query = np.array([[1.0, 0.0]])
        assert np.argmax(query @ model.linear.weight.value) == 1
        assert model.predict(query).tolist() == [0]

    def test_trainer_validates_with_cosine(self):
        samples, labels = make_toy_task(num_samples=90, dimension=64, seed=6)
        model = SingleLayerNetwork(Linear(64, 3, seed=6), dropout_rate=0.2, seed=6)
        config = LeHDCConfig(epochs=3, batch_size=16, learning_rate=0.05)
        history = BNNTrainer(model, config, seed=6).train(
            samples, labels, validation_hypervectors=samples, validation_labels=labels
        )
        scores = samples.astype(np.float64) @ model.class_hypervectors.T.astype(np.float64)
        scores /= np.linalg.norm(samples, axis=1, keepdims=True)
        scores /= np.linalg.norm(model.class_hypervectors, axis=1)
        expected = float(np.mean(np.argmax(scores, axis=1) == labels))
        assert history.validation_accuracy[-1] == expected
        assert model.class_hypervectors.dtype == model.linear.weight.value.dtype


class TestBNNTrainer:
    def test_training_reduces_loss(self):
        samples, labels = make_toy_task(seed=4)
        config = LeHDCConfig(
            epochs=15, batch_size=32, dropout_rate=0.0, weight_decay=0.0, learning_rate=0.01
        )
        model = SingleLayerBNN(256, 3, dropout_rate=0.0, seed=4)
        trainer = BNNTrainer(model, config, seed=4)
        history = trainer.train(samples, labels)
        assert history.train_loss[-1] < history.train_loss[0]
        assert history.train_accuracy[-1] > 0.9

    def test_history_lengths(self):
        samples, labels = make_toy_task(num_samples=60, dimension=128, seed=5)
        config = LeHDCConfig(epochs=4, batch_size=16, dropout_rate=0.0)
        model = SingleLayerBNN(128, 3, dropout_rate=0.0, seed=5)
        trainer = BNNTrainer(model, config, seed=5)
        history = trainer.train(samples, labels, validation_hypervectors=samples, validation_labels=labels)
        assert history.epochs == 4
        assert len(history.validation_accuracy) == 4
        assert len(history.learning_rate) == 4

    def test_epoch_override(self):
        samples, labels = make_toy_task(num_samples=40, dimension=64, seed=6)
        config = LeHDCConfig(epochs=100, batch_size=16, dropout_rate=0.0)
        model = SingleLayerBNN(64, 3, dropout_rate=0.0, seed=6)
        trainer = BNNTrainer(model, config, seed=6)
        history = trainer.train(samples, labels, epochs=2)
        assert history.epochs == 2

    def test_validation_args_must_come_together(self):
        samples, labels = make_toy_task(num_samples=40, dimension=64, seed=7)
        config = LeHDCConfig(epochs=1, batch_size=16)
        trainer = BNNTrainer(SingleLayerBNN(64, 3, seed=7), config, seed=7)
        with pytest.raises(ValueError):
            trainer.train(samples, labels, validation_hypervectors=samples)

    def test_lr_decay_on_loss_increase(self):
        samples, labels = make_toy_task(num_samples=60, dimension=128, seed=9)
        # A huge learning rate makes the loss oscillate, which must trigger decay.
        config = LeHDCConfig(epochs=10, batch_size=16, dropout_rate=0.0, learning_rate=5.0)
        model = SingleLayerBNN(128, 3, dropout_rate=0.0, seed=9)
        trainer = BNNTrainer(model, config, seed=9)
        history = trainer.train(samples, labels)
        assert history.learning_rate[-1] < 5.0

    def test_learning_rate_below_the_decay_floor_is_kept(self):
        samples, labels = make_toy_task(num_samples=60, dimension=128, seed=12)
        config = LeHDCConfig(epochs=8, batch_size=16, dropout_rate=0.5, learning_rate=1e-7)
        history = BNNTrainer(SingleLayerBNN(128, 3, seed=12), config, seed=12).train(
            samples, labels
        )
        assert any(b >= a for a, b in zip(history.train_loss, history.train_loss[1:]))
        assert history.learning_rate == [1e-7] * 8

    def test_best_validation_epoch(self):
        history = TrainingHistory(validation_accuracy=[0.1, 0.5, 0.3])
        assert history.best_validation_epoch() == 1
        assert TrainingHistory().best_validation_epoch() is None

    def test_bad_labels_rejected(self):
        samples, labels = make_toy_task(num_samples=40, dimension=64, seed=11)
        config = LeHDCConfig(epochs=1, batch_size=16)
        trainer = BNNTrainer(SingleLayerBNN(64, 2, seed=11), config, seed=11)
        with pytest.raises(ValueError):
            trainer.train(samples, labels)  # labels contain class 2 but model has 2 outputs
