"""The packed inference engine: a fitted pipeline compiled for serving.

Training produces an :class:`~repro.classifiers.pipeline.HDCPipeline`; serving
wants something flatter.  :class:`PackedInferenceEngine` does the one-time
compilation at load time:

* the classifier's packed inference bank is compiled up front — the
  ``(K, ceil(D/64))`` packed class hypervectors for shared-rule classifiers,
  the flat ``(K * N, ceil(D/64))`` model bank for the SearcHD-style ensemble
  (scored by XOR + popcount then max over each class's sub-models) — so each
  query is answered with XOR + popcount, the zero-overhead path the paper
  claims;
* the record encoder's fused accumulator (position columns grouped by level
  flip) is compiled once, so encoding a request is one grouped GEMM with no
  per-request binds.

Every classifier that can be saved scores this way.  Non-binary LeHDC
(cosine similarity over real class hypervectors) has no packed twin; the
engine refuses it with a ``ValueError``, and it predicts in-process through
:class:`~repro.classifiers.pipeline.HDCPipeline` only.

A request runs one path for every batch size and every ``k``: one
validation, then the encoder's packed step —
:meth:`~repro.kernels.encode.RecordAccumulator.packed_signs` over the
quantiser's scaled values, the step ``RecordEncoder.encode_packed`` (and so
``HDCPipeline.predict``) runs too — then
:func:`~repro.kernels.packed.bank_scores` and
:func:`~repro.classifiers.base.top_k_from_scores`.

All of the bit-level machinery lives in :mod:`repro.kernels` — this module
owns only serving concerns: compilation, metadata, and thread-safety.  The
engine is safe to share across threads, so in-process callers of
:class:`~repro.serve.server.ServeApp` on several threads need no lock of
their own.  The only mutable state it touches is the encoder's RNG
(consumed for ``sgn(0)`` tie-breaks when the encoder was configured with
``tie_break="random"``); those draws are serialised behind an internal lock
because ``np.random.Generator`` is not thread-safe.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.classifiers.base import top_k_from_scores
from repro.classifiers.pipeline import HDCPipeline
from repro.kernels.packed import bank_scores
from repro.utils.validation import check_matrix


class PackedInferenceEngine:
    """A fitted :class:`HDCPipeline` compiled for high-throughput inference.

    Parameters
    ----------
    pipeline:
        A fitted pipeline (trained in-process or loaded via
        :func:`repro.io.load_model`).
    name:
        Display name reported by :meth:`info`.
    metadata:
        Optional JSON-serialisable dictionary carried through to
        :meth:`info`: a saved model's metadata, which the registry's
        listing reads.

    A classifier without packed scoring (non-binary LeHDC) raises
    ``ValueError``.
    """

    def __init__(
        self,
        pipeline: HDCPipeline,
        name: str = "model",
        metadata: Optional[dict] = None,
    ):
        if not getattr(pipeline, "_fitted", False):
            raise ValueError("the pipeline must be fitted before it can be served")
        classifier = pipeline.classifier
        if classifier.class_hypervectors_ is None:
            raise ValueError("the pipeline's classifier has no class hypervectors")
        if not classifier.supports_packed_scoring():
            raise ValueError(
                f"{type(classifier).__name__} has no packed scoring; the engine "
                "serves XOR+popcount classifiers only"
            )

        self.name = str(name)
        self.pipeline = pipeline
        self.encoder = pipeline.encoder
        self.classifier = classifier
        self.metadata = dict(metadata or {})
        self.dimension = int(classifier.class_hypervectors_.shape[1])
        self.num_classes = int(classifier.class_hypervectors_.shape[0])
        #: width of the feature rows the engine scores
        self.num_features = int(self.encoder.num_features)

        # The words the packed scoring rule keeps resident: the packed class
        # hypervectors for shared-rule classifiers, the flat K*N model bank
        # for ensembles.  Building it here both pre-warms the classifier's
        # cache (scoring after this point is read-only, hence thread-safe)
        # and makes first-request latency exclude the pack.
        self._packed_classes = classifier.packed_inference_bank()
        # np.random.Generator is not thread-safe; tie-break draws (the only
        # RNG consumption on the request path) are serialised behind this.
        self._rng_lock = threading.Lock()

        # Compile the fused accumulator now so first-request latency excludes
        # building its tables and concurrent first requests cannot race
        # compilation.  The engine shares the encoder's compiled tables.
        self._accumulator = self.encoder._get_accumulator()

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_file(
        cls, path: Union[str, Path], name: Optional[str] = None, **kwargs
    ) -> "PackedInferenceEngine":
        """Load a model saved with :func:`repro.io.save_model` and compile it;
        the archive is opened once, for its arrays and its metadata."""
        from repro.io import _load

        path = Path(path)
        pipeline, metadata = _load(path)
        return cls(
            pipeline,
            name=name or path.stem,
            metadata=metadata,
            **kwargs,
        )

    # --------------------------------------------------------------- inference
    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """``(n, K)`` class scores; higher is more similar.

        Validates *features* once, encodes them through the encoder's packed
        step (the one :meth:`~repro.hdc.encoders.RecordEncoder.encode_packed`
        runs, with the ``sgn(0)`` draws under the engine's lock) and returns
        the integer dot similarity ``D - 2 * hamming_bits`` from one XOR +
        popcount against the resident bank; the ensemble's score is the max
        over each class's rows.  Both equal the dense scores exactly.
        """
        features = check_matrix(
            features, "features", dtype=np.float64, n_columns=self.num_features
        )
        words = self.encoder._pack(features, self._rng_lock)
        return bank_scores(
            words, self._packed_classes.words, self.dimension, self.num_classes
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict integer class labels for a batch of raw feature rows."""
        return np.argmax(self.decision_scores(features), axis=1)

    def top_k(self, features: np.ndarray, k: int = 5) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` best classes per sample, best first.

        Returns ``(labels, scores)``, both ``(n, k)``; ``k`` is clipped to the
        number of classes.
        """
        return top_k_from_scores(self.decision_scores(features), k)

    # ------------------------------------------------------------------- misc
    @property
    def packed_storage_bytes(self) -> int:
        """Bytes of resident packed model storage.

        For ensemble models this counts the whole ``K * N`` packed bank —
        the paper's linear-in-``N`` storage growth, as a serving metric.
        """
        return self._packed_classes.storage_bytes

    def info(self) -> dict:
        """JSON-ready description of the compiled engine: its shape and the
        bytes it keeps resident (perfbench reads ``table_bytes``)."""
        return {
            "name": self.name,
            "dimension": self.dimension,
            "num_classes": self.num_classes,
            "packed_rows": len(self._packed_classes),
            "num_features": self.encoder.num_features,
            "encoder": type(self.encoder).__name__,
            "classifier": type(self.classifier).__name__,
            "packed_storage_bytes": self.packed_storage_bytes,
            "table_bytes": self._accumulator.table_bytes,
            "metadata": self.metadata,
        }


__all__ = ["PackedInferenceEngine"]
