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
from repro.hdc.encoders import RecordEncoder
from repro.hdc.quantize import UniformQuantizer
from repro.kernels.encode import nested_flip_levels

FORMAT_VERSION = 1
#: Archives carrying a multi-model ensemble bank are stamped with this higher
#: version: readers that predate ensemble persistence reject them with a
#: clear format error instead of silently serving the per-class majority
#: vectors.  Plain single-hypervector models keep ``FORMAT_VERSION`` so they
#: stay readable by older builds.
ENSEMBLE_FORMAT_VERSION = 2
SUPPORTED_FORMAT_VERSIONS = (FORMAT_VERSION, ENSEMBLE_FORMAT_VERSION)

#: The metadata fields :func:`load_model` reads to rebuild a model.
_REQUIRED_FIELDS = (
    "encoder_kind",
    "dimension",
    "num_levels",
    "num_features",
    "quantizer_kind",
    "tie_break",
    "num_classes",
)
#: The one encoder and quantiser a model file may record.  Files keep
#: naming them, so a build that also read other kinds still reads them.
_KINDS = {"encoder_kind": "record", "quantizer_kind": "uniform"}


def _package_version() -> str:
    from repro import __version__

    return __version__


def _verify_metadata(metadata: dict, path: Path) -> None:
    """Validate a loaded metadata block, raising descriptive errors.

    Earlier revisions of this module silently accepted archives written by any
    package version and deferred encoder-kind mistakes and missing fields to
    an opaque ``KeyError`` deep in reconstruction; all are now checked up
    front.  A file that records an encoder or quantiser other than the
    record encoder's uniform one is refused, naming the field.
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
    missing = [field for field in _REQUIRED_FIELDS if field not in metadata]
    if missing:
        raise ValueError(f"model {path}: metadata lacks {', '.join(missing)}")
    for field, kind in _KINDS.items():
        if metadata[field] != kind:
            raise ValueError(
                f"model {path}: {field} is {metadata[field]!r}; this build reads "
                f"{kind!r} only"
            )


@contextlib.contextmanager
def _open_archive(path: Path) -> Iterator[np.lib.npyio.NpzFile]:
    """The saved model at *path*, open for reading its arrays.

    A file that is not a readable ``.npz`` archive (empty, truncated, text,
    a single ``.npy`` array), or an archive without an array the model needs,
    raises ``ValueError`` naming *path*; a file that cannot be opened stays
    an ``OSError``.  The file is opened here and closed on every path:
    NumPy leaves a file it opened itself open when the archive is truncated.
    """
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle, allow_pickle=False)
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

    The level memory must be nested (each coordinate flips once), because
    the record encoder evaluates Eq. 1 through that structure; a foreign or
    tampered one is rejected here, when the file is loaded or registered,
    instead of on the first request.
    """
    metadata = json.loads(bytes(archive["metadata_json"].tobytes()).decode("utf-8"))
    _verify_metadata(metadata, path)
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


def check_savable(classifier) -> None:
    """Raise ``ValueError`` unless a model file can hold *classifier*.

    A model file holds binary class hypervectors, and a loaded model scores
    them by the shared XOR+popcount rule; a classifier that scores by its
    own rule (:meth:`supports_packed_scoring` false) would load as a
    different model.
    """
    if not classifier.supports_packed_scoring():
        raise ValueError(
            f"{type(classifier).__name__} cannot be saved: a model file holds "
            "binary class hypervectors scored by Hamming distance, not its own "
            "scoring rule"
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
        A fitted :class:`HDCPipeline` whose classifier a model file can
        hold (:func:`check_savable`); any other classifier raises
        ``ValueError``.
    strategy_name:
        Free-form label recording which training strategy produced the model.
    extra_metadata:
        Optional JSON-serialisable dictionary stored alongside the arrays.
    """
    encoder = pipeline.encoder
    classifier = pipeline.classifier
    check_savable(classifier)
    if classifier.class_hypervectors_ is None or encoder.num_features is None:
        raise ValueError("the pipeline must be fitted before it can be saved")

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
        "encoder_kind": _KINDS["encoder_kind"],
        "dimension": encoder.dimension,
        "num_levels": encoder.num_levels,
        "num_features": encoder.num_features,
        "quantizer_kind": _KINDS["quantizer_kind"],
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
    arrays["quantizer_minimums"] = encoder._quantizer._minimums
    arrays["quantizer_ranges"] = encoder._quantizer._ranges
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
        minimums = archive["quantizer_minimums"]
        ranges = archive["quantizer_ranges"]

    encoder = _rebuild_encoder(metadata, position_vectors, level_vectors, minimums, ranges)
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

    Cheap (the only arrays decompressed are the metadata entry and the
    ``(L, D)`` level memory it checks is nested), for tooling that inspects
    artefacts.
    """
    path = Path(path)
    with _open_archive(path) as archive:
        return _read_verified_metadata(archive, path)


def _rebuild_encoder(
    metadata, position_vectors, level_vectors, minimums, ranges
) -> RecordEncoder:
    """Reconstruct the encoder from its serialised state."""
    encoder = RecordEncoder(
        dimension=metadata["dimension"],
        num_levels=metadata["num_levels"],
        tie_break=metadata["tie_break"],
        seed=0,
    )

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

    quantizer = UniformQuantizer(metadata["num_levels"])
    quantizer._minimums = minimums
    quantizer._ranges = ranges
    encoder._quantizer = quantizer
    return encoder


__all__ = [
    "FrozenClassifier",
    "FrozenEnsembleClassifier",
    "check_savable",
    "save_model",
    "load_model",
    "read_model_metadata",
    "ENSEMBLE_FORMAT_VERSION",
    "FORMAT_VERSION",
    "SUPPORTED_FORMAT_VERSIONS",
]
