"""LeHDC training configurations, including the paper's Table 2 settings.

Table 2 of the paper lists, per dataset: weight decay (WD), learning rate
(LR), batch size (B), dropout rate (DR), and number of epochs.  Those values
are reproduced verbatim in :data:`PAPER_CONFIGS`.  :class:`LeHDCConfig` adds
the latent-weight clip, the weight-decay form and the validation split.  The
rest of the recipe is not a knob: LeHDC trains ``float32`` weights from a
uniform start with Adam (Sec. 4), and halves the learning rate when the
epoch loss stops falling (Sec. 5.2; see :mod:`repro.nn.schedules`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.utils.validation import check_positive_int, check_probability


@dataclass(frozen=True)
class LeHDCConfig:
    """Hyper-parameters for one LeHDC training run (binary or non-binary).

    Attributes
    ----------
    learning_rate:
        Adam learning rate (Table 2 "LR").
    weight_decay:
        L2 penalty coefficient ``lambda`` of Eq. 10 (Table 2 "WD").
    batch_size:
        Mini-batch size (Table 2 "B").
    dropout_rate:
        Dropout probability applied to the encoded hypervector (Table 2 "DR").
        The mask is drawn at 16-bit resolution, one uint64 per four entries:
        an entry is kept when its 16-bit lane is below
        ``round((1 - dropout_rate) * 65536)``, so the realised rate is within
        ``2**-17`` of this value (see :class:`repro.nn.layers.Dropout`).
    epochs:
        Number of passes over the training set (Table 2 "Epochs").
    decoupled_weight_decay:
        Apply weight decay decoupled from the Adam moments (AdamW style) when
        ``True``; fold it into the gradient (the literal Eq. 10) when ``False``.
    latent_clip:
        Clip range for latent weights (BinaryConnect style); ``None`` disables.
        Non-binary LeHDC has no latent weights and ignores it.
    validation_fraction:
        Fraction of the training set held out to report per-epoch validation
        accuracy in the training history (0 disables the split; the paper
        mentions the validation-set ratio as an implicit hyper-parameter).
    """

    learning_rate: float = 0.01
    weight_decay: float = 0.05
    batch_size: int = 64
    dropout_rate: float = 0.5
    epochs: int = 100
    decoupled_weight_decay: bool = True
    latent_clip: Optional[float] = 1.0
    validation_fraction: float = 0.0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        check_positive_int(self.batch_size, "batch_size")
        check_probability(self.dropout_rate, "dropout_rate", inclusive_one=False)
        check_positive_int(self.epochs, "epochs")
        if self.latent_clip is not None and self.latent_clip <= 0:
            raise ValueError(f"latent_clip must be positive or None, got {self.latent_clip}")
        check_probability(self.validation_fraction, "validation_fraction", inclusive_one=False)

    def with_overrides(self, **overrides) -> "LeHDCConfig":
        """Return a copy with the given fields replaced (ablation helper)."""
        return replace(self, **overrides)


#: Table 2 of the paper, keyed by the dataset names used in the evaluation.
PAPER_CONFIGS: Dict[str, LeHDCConfig] = {
    "mnist": LeHDCConfig(
        weight_decay=0.05, learning_rate=0.01, batch_size=64, dropout_rate=0.5, epochs=100
    ),
    "fashion_mnist": LeHDCConfig(
        weight_decay=0.03, learning_rate=0.1, batch_size=256, dropout_rate=0.3, epochs=200
    ),
    "cifar10": LeHDCConfig(
        weight_decay=0.03, learning_rate=0.001, batch_size=512, dropout_rate=0.3, epochs=200
    ),
    "ucihar": LeHDCConfig(
        weight_decay=0.05, learning_rate=0.01, batch_size=64, dropout_rate=0.5, epochs=100
    ),
    "isolet": LeHDCConfig(
        weight_decay=0.05, learning_rate=0.01, batch_size=64, dropout_rate=0.5, epochs=100
    ),
    "pamap": LeHDCConfig(
        weight_decay=0.05, learning_rate=0.01, batch_size=64, dropout_rate=0.5, epochs=100
    ),
}

#: Configuration used when no dataset-specific entry applies (MNIST row of Table 2).
DEFAULT_CONFIG: LeHDCConfig = PAPER_CONFIGS["mnist"]


def get_paper_config(dataset_name: str) -> LeHDCConfig:
    """Return the Table 2 configuration for *dataset_name* (case-insensitive).

    Unknown names fall back to :data:`DEFAULT_CONFIG`, mirroring the paper's
    "UCIHAR, ISOLET, PAMAP" shared row.
    """
    return PAPER_CONFIGS.get(dataset_name.lower().replace("-", "_"), DEFAULT_CONFIG)


def reproduction_config(dataset_name: str, epochs: int) -> LeHDCConfig:
    """The reproduction's LeHDC recipe for *dataset_name*, at *epochs* epochs.

    Table 2's weight decay and dropout for the dataset, at batch size 64 and
    learning rate 0.01 on every dataset: the synthetic substitutes are about
    30x smaller than the paper's training sets, and batch 64 with LR 0.01
    keeps the number of Adam steps comparable to the paper's.
    """
    return get_paper_config(dataset_name).with_overrides(
        epochs=epochs, batch_size=64, learning_rate=0.01
    )


__all__ = [
    "LeHDCConfig",
    "PAPER_CONFIGS",
    "DEFAULT_CONFIG",
    "get_paper_config",
    "reproduction_config",
]
