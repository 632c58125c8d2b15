"""Model persistence: save and load trained HDC pipelines.

A deployed HDC classifier consists of three artefacts:

* the encoder's item memories (position and level hypervectors) and its
  quantiser state — needed to encode queries exactly as at training time;
* the binary class hypervectors — the entire inference-time model — plus,
  for SearcHD-style ensembles, the full ``(K, N, D)`` model bank, so a
  loaded ensemble keeps its max-over-sub-models decision rule instead of
  silently degrading to the per-class majority vectors;
* metadata (dimension, class count, the training strategy that produced it).

:func:`save_model` / :func:`load_model` store all three in a single ``.npz``
file (NumPy's portable compressed container, no pickle involved), so a model
trained with LeHDC on a workstation can be shipped to the device-side runtime
— or simply reloaded later — without retraining.  Loading reconstructs an
:class:`~repro.classifiers.pipeline.HDCPipeline` whose predictions match the
saved one (exactly, when the encoder uses the deterministic ``"positive"``
tie-break; up to the random resolution of ``sgn(0)`` ties otherwise).
"""

from __future__ import annotations

import contextlib
import json
import zipfile
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.multimodel import MultiModelHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.encoders import Encoder, NGramEncoder, RecordEncoder
from repro.hdc.quantize import QuantileQuantizer, UniformQuantizer
from repro.kernels.encode import nested_flip_levels

FORMAT_VERSION = 1
#: Archives carrying a multi-model ensemble bank are stamped with this higher
#: version: readers that predate ensemble persistence reject them with a
#: clear format error instead of silently serving the per-class majority
#: vectors.  Plain single-hypervector models keep ``FORMAT_VERSION`` so they
#: stay readable by older builds.
ENSEMBLE_FORMAT_VERSION = 2
SUPPORTED_FORMAT_VERSIONS = (FORMAT_VERSION, ENSEMBLE_FORMAT_VERSION)

_ENCODER_KINDS = ("record", "ngram")
#: The metadata fields :func:`load_model` reads to rebuild a model (an n-gram
#: model also needs ``ngram``).
_REQUIRED_FIELDS = (
    "dimension",
    "num_levels",
    "num_features",
    "quantizer_kind",
    "tie_break",
    "num_classes",
)


def _package_version() -> str:
    from repro import __version__

    return __version__


def _verify_metadata(metadata: dict, path: Path) -> None:
    """Validate a loaded metadata block, raising descriptive errors.

    Earlier revisions of this module silently accepted archives written by any
    package version and deferred encoder-kind mistakes and missing fields to
    an opaque ``KeyError`` deep in reconstruction; all are now checked up
    front.
    """
    if not isinstance(metadata, dict):
        raise ValueError(f"model {path}: metadata is not a JSON object")
    if metadata.get("format_version") not in SUPPORTED_FORMAT_VERSIONS:
        raise ValueError(
            f"unsupported model format version {metadata.get('format_version')!r} "
            f"in {path} (this build reads formats {SUPPORTED_FORMAT_VERSIONS})"
        )
    saved_version = metadata.get("package_version")
    if saved_version is not None:
        saved_major = str(saved_version).split(".")[0]
        current = _package_version()
        if saved_major != current.split(".")[0]:
            raise ValueError(
                f"model {path} was saved by repro {saved_version}, which is "
                f"incompatible with the installed repro {current} "
                "(major versions differ); re-train or convert the model"
            )
    encoder_kind = metadata.get("encoder_kind")
    if encoder_kind not in _ENCODER_KINDS:
        raise ValueError(
            f"model {path} records unknown encoder kind {encoder_kind!r}; "
            f"expected one of {_ENCODER_KINDS}"
        )
    required = _REQUIRED_FIELDS + (("ngram",) if encoder_kind == "ngram" else ())
    missing = [field for field in required if field not in metadata]
    if missing:
        raise ValueError(f"model {path}: metadata lacks {', '.join(missing)}")


@contextlib.contextmanager
def _open_archive(path: Path) -> Iterator[np.lib.npyio.NpzFile]:
    """The saved model at *path*, open for reading its arrays.

    A file that is not a readable ``.npz`` archive (empty, truncated, text,
    a single ``.npy`` array), or an archive without an array the model needs,
    raises ``ValueError`` naming *path*; a file that cannot be opened stays
    an ``OSError``.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (EOFError, zipfile.BadZipFile) as error:
        raise ValueError(f"model {path}: not a readable .npz archive ({error})") from error
    except ValueError as error:  # NumPy's message offers to unpickle the file
        raise ValueError(f"model {path}: not an .npz archive") from error
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"model {path}: a single array, not an .npz archive")
    with archive:
        try:
            yield archive
        except KeyError as error:  # an array the archive does not hold
            raise ValueError(f"model {path}: {error.args[0]}") from error


def _read_verified_metadata(archive, path: Path) -> dict:
    """The archive's metadata block, verified along with its level memory.

    A record model's level memory must be nested (each coordinate flips
    once), because the record encoder evaluates Eq. 1 through that
    structure; a foreign or tampered one is rejected here, when the file is
    loaded or registered, instead of on the first request.
    """
    metadata = json.loads(bytes(archive["metadata_json"].tobytes()).decode("utf-8"))
    _verify_metadata(metadata, path)
    if metadata["encoder_kind"] == "record":
        try:
            nested_flip_levels(archive["level_vectors"])
        except ValueError as error:
            raise ValueError(f"model {path}: {error}") from error
    return metadata


class FrozenClassifier(BaselineHDC):
    """Inference-only carrier for loaded class hypervectors.

    It reuses :class:`BaselineHDC`'s inference path (which is shared by every
    strategy) but refuses to be refitted, making it explicit that a loaded
    model is an inference artefact.
    """

    def fit(self, hypervectors, labels):  # pragma: no cover - guard path
        raise RuntimeError(
            "this classifier was loaded from a file and is inference-only; "
            "train a new classifier instead of refitting it"
        )


class FrozenEnsembleClassifier(MultiModelHDC):
    """Inference-only carrier for a loaded SearcHD-style model bank.

    Reuses :class:`MultiModelHDC`'s max-over-sub-models scoring (dense and
    packed) against the restored ``model_hypervectors_``.
    """

    def fit(self, hypervectors, labels, packed_train=None):  # pragma: no cover
        raise RuntimeError(
            "this classifier was loaded from a file and is inference-only; "
            "train a new classifier instead of refitting it"
        )


def save_model(
    path: Union[str, Path],
    pipeline: HDCPipeline,
    strategy_name: str = "unknown",
    extra_metadata: Optional[dict] = None,
) -> Path:
    """Serialise a fitted pipeline (encoder state + class hypervectors) to *path*.

    Parameters
    ----------
    path:
        Destination file; the ``.npz`` suffix is appended if missing.
    pipeline:
        A fitted :class:`HDCPipeline` (any classifier that exposes
        ``class_hypervectors_``).
    strategy_name:
        Free-form label recording which training strategy produced the model.
    extra_metadata:
        Optional JSON-serialisable dictionary stored alongside the arrays.
    """
    encoder = pipeline.encoder
    classifier = pipeline.classifier
    if classifier.class_hypervectors_ is None or encoder.num_features is None:
        raise ValueError("the pipeline must be fitted before it can be saved")

    quantizer = encoder._quantizer
    if isinstance(quantizer, UniformQuantizer):
        quantizer_kind = "uniform"
        quantizer_state = {
            "minimums": quantizer._minimums,
            "ranges": quantizer._ranges,
        }
    elif isinstance(quantizer, QuantileQuantizer):
        quantizer_kind = "quantile"
        quantizer_state = {"edges": quantizer._edges}
    else:  # pragma: no cover - future quantisers
        raise TypeError(f"unsupported quantizer type {type(quantizer).__name__}")

    model_bank = getattr(classifier, "model_hypervectors_", None)
    if model_bank is not None and np.ndim(model_bank) != 3:  # pragma: no cover
        raise ValueError(
            f"model_hypervectors_ must be a (K, N, D) bank, got shape "
            f"{np.shape(model_bank)}"
        )

    metadata = {
        "format_version": (
            ENSEMBLE_FORMAT_VERSION if model_bank is not None else FORMAT_VERSION
        ),
        "package_version": _package_version(),
        "strategy": strategy_name,
        "models_per_class": (
            int(model_bank.shape[1]) if model_bank is not None else None
        ),
        "encoder_kind": "ngram" if isinstance(encoder, NGramEncoder) else "record",
        "ngram": getattr(encoder, "ngram", None),
        "dimension": encoder.dimension,
        "num_levels": encoder.num_levels,
        "num_features": encoder.num_features,
        "quantizer_kind": quantizer_kind,
        "tie_break": encoder.tie_break,
        "num_classes": int(classifier.class_hypervectors_.shape[0]),
        "extra": extra_metadata or {},
    }

    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz" if path.suffix else ".npz")
    arrays = {
        "class_hypervectors": classifier.class_hypervectors_,
        "position_vectors": encoder.position_memory.vectors,
        "level_vectors": encoder.level_memory.vectors,
        "metadata_json": np.frombuffer(
            json.dumps(metadata).encode("utf-8"), dtype=np.uint8
        ),
    }
    if model_bank is not None:
        arrays["model_hypervectors"] = model_bank
    for key, value in quantizer_state.items():
        arrays[f"quantizer_{key}"] = value
    np.savez_compressed(path, **arrays)
    return path


def load_model(path: Union[str, Path]) -> HDCPipeline:
    """Load a pipeline saved by :func:`save_model`.

    Returns an :class:`HDCPipeline` ready for ``predict``/``score`` on raw
    feature vectors; its classifier is inference-only.
    """
    return _load(Path(path))[0]


def _load(path: Path) -> Tuple[HDCPipeline, dict]:
    """The pipeline saved at *path* and its verified metadata, read from one
    open archive (the serving engine carries both)."""
    with _open_archive(path) as archive:
        metadata = _read_verified_metadata(archive, path)
        class_hypervectors = archive["class_hypervectors"]
        position_vectors = archive["position_vectors"]
        level_vectors = archive["level_vectors"]
        model_bank = (
            archive["model_hypervectors"]
            if "model_hypervectors" in archive.files
            else None
        )
        quantizer_arrays = {
            key[len("quantizer_") :]: archive[key]
            for key in archive.files
            if key.startswith("quantizer_")
        }

    encoder = _rebuild_encoder(metadata, position_vectors, level_vectors, quantizer_arrays)
    if model_bank is not None:
        classifier = FrozenEnsembleClassifier(
            models_per_class=int(model_bank.shape[1])
        )
        classifier.model_hypervectors_ = model_bank.astype(np.int8)
    else:
        classifier = FrozenClassifier(tie_break=metadata["tie_break"])
    classifier.class_hypervectors_ = class_hypervectors.astype(np.int8)
    classifier.num_classes_ = metadata["num_classes"]

    pipeline = HDCPipeline(encoder, classifier)
    pipeline._fitted = True
    return pipeline, metadata


def read_model_metadata(path: Union[str, Path]) -> dict:
    """Read and verify the metadata block of a saved model without loading it.

    Cheap (the only arrays decompressed are the metadata entry and, for a
    record model, the ``(L, D)`` level memory it checks is nested), for
    tooling that inspects artefacts.
    """
    path = Path(path)
    with _open_archive(path) as archive:
        return _read_verified_metadata(archive, path)


def _rebuild_encoder(metadata, position_vectors, level_vectors, quantizer_arrays) -> Encoder:
    """Reconstruct an encoder object from its serialised state."""
    common = dict(
        dimension=metadata["dimension"],
        num_levels=metadata["num_levels"],
        quantizer=metadata["quantizer_kind"],
        tie_break=metadata["tie_break"],
        seed=0,
    )
    if metadata["encoder_kind"] == "ngram":
        encoder: Encoder = NGramEncoder(ngram=metadata["ngram"], **common)
    else:
        encoder = RecordEncoder(**common)

    encoder.num_features = metadata["num_features"]
    # Overwrite the freshly constructed item memories with the saved codebooks.
    from repro.hdc.itemmemory import LevelItemMemory, RandomItemMemory

    position_memory = RandomItemMemory(
        position_vectors.shape[0], metadata["dimension"], seed=0
    )
    position_memory._vectors = position_vectors.astype(np.int8)
    level_memory = LevelItemMemory(level_vectors.shape[0], metadata["dimension"], seed=0)
    level_memory._vectors = level_vectors.astype(np.int8)
    encoder.position_memory = position_memory
    encoder.level_memory = level_memory

    if metadata["quantizer_kind"] == "uniform":
        quantizer = UniformQuantizer(metadata["num_levels"])
        quantizer._minimums = quantizer_arrays["minimums"]
        quantizer._ranges = quantizer_arrays["ranges"]
    else:
        quantizer = QuantileQuantizer(metadata["num_levels"])
        quantizer._edges = quantizer_arrays["edges"]
    encoder._quantizer = quantizer
    return encoder


__all__ = [
    "FrozenClassifier",
    "FrozenEnsembleClassifier",
    "save_model",
    "load_model",
    "read_model_metadata",
    "ENSEMBLE_FORMAT_VERSION",
    "FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
]
