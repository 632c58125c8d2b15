"""Unit tests for repro.core.configs."""

import dataclasses

import pytest

from repro.core.configs import (
    DEFAULT_CONFIG,
    PAPER_CONFIGS,
    LeHDCConfig,
    get_paper_config,
    reproduction_config,
)


class TestLeHDCConfig:
    def test_defaults_valid(self):
        config = LeHDCConfig()
        assert config.decoupled_weight_decay is True
        assert config.latent_clip == 1.0
        assert len(dataclasses.fields(config)) == 8

    def test_frozen(self):
        config = LeHDCConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.learning_rate = 0.5

    def test_with_overrides(self):
        config = LeHDCConfig().with_overrides(epochs=7, dropout_rate=0.1)
        assert config.epochs == 7
        assert config.dropout_rate == 0.1
        # The original is unchanged.
        assert LeHDCConfig().epochs == 100

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0.0),
            ("weight_decay", -0.1),
            ("batch_size", 0),
            ("dropout_rate", 1.0),
            ("epochs", 0),
            ("latent_clip", 0.0),
            ("validation_fraction", 1.0),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises((ValueError, TypeError)):
            LeHDCConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("optimizer", "adam"),
            ("grad_clip_norm", 1.0),
            ("warm_start_from_centroids", True),
            ("init_scale", 0.01),
            ("lr_decay_factor", 0.5),
            ("lr_decay_patience", 1),
        ],
    )
    def test_removed_fields_raise_type_error(self, field, value):
        # LeHDC trains with Adam, unclipped gradients, a fixed-scale random
        # start and a fixed decay schedule; none is a knob, even at its old
        # default.
        with pytest.raises(TypeError):
            LeHDCConfig(**{field: value})
        with pytest.raises(TypeError):
            LeHDCConfig().with_overrides(**{field: value})


class TestPaperConfigs:
    def test_all_six_datasets_covered(self):
        assert set(PAPER_CONFIGS) == {
            "mnist",
            "fashion_mnist",
            "cifar10",
            "ucihar",
            "isolet",
            "pamap",
        }

    def test_table2_values(self):
        # Spot-check the exact Table 2 numbers.
        fashion = PAPER_CONFIGS["fashion_mnist"]
        assert fashion.weight_decay == 0.03
        assert fashion.learning_rate == 0.1
        assert fashion.batch_size == 256
        assert fashion.dropout_rate == 0.3
        assert fashion.epochs == 200

        cifar = PAPER_CONFIGS["cifar10"]
        assert cifar.learning_rate == 0.001
        assert cifar.batch_size == 512

        mnist = PAPER_CONFIGS["mnist"]
        assert mnist.weight_decay == 0.05
        assert mnist.epochs == 100

    def test_sensor_datasets_share_row(self):
        assert PAPER_CONFIGS["ucihar"] == PAPER_CONFIGS["isolet"] == PAPER_CONFIGS["pamap"]

    def test_get_paper_config_normalises_name(self):
        assert get_paper_config("Fashion-MNIST") == PAPER_CONFIGS["fashion_mnist"]
        assert get_paper_config("CIFAR10") == PAPER_CONFIGS["cifar10"]

    def test_get_paper_config_fallback(self):
        assert get_paper_config("unknown-dataset") == DEFAULT_CONFIG


class TestReproductionConfig:
    @pytest.mark.parametrize("dataset", sorted(PAPER_CONFIGS))
    def test_table2_regularisation_at_batch_64_and_rate_0_01(self, dataset):
        # Only the batch, the rate and the epochs depart from Table 2.
        assert reproduction_config(dataset, 12) == PAPER_CONFIGS[dataset].with_overrides(
            epochs=12, batch_size=64, learning_rate=0.01
        )

    def test_names_resolve_as_get_paper_config_resolves_them(self):
        assert reproduction_config("Fashion-MNIST", 5) == reproduction_config("fashion_mnist", 5)
        assert reproduction_config("unknown-dataset", 5) == DEFAULT_CONFIG.with_overrides(
            epochs=5
        )
