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
* the encoder's fused accumulator (position columns grouped by level flip
  for the record encoder, pre-permuted codebooks for the n-gram encoder) is
  compiled once, so encoding a request is one grouped GEMM (record) or one
  gather + accumulate (n-gram) with no per-request binds;
* classifiers whose scoring has no packed twin (non-binary cosine centroids)
  transparently fall back to a dense path that defers to the classifier's
  own ``decision_scores``.

A packed request runs one path for every batch size and every ``k``: one
validation, then the encoder's packed step — for the record encoder
:meth:`~repro.kernels.encode.RecordAccumulator.packed_signs` over the
quantiser's scaled values, the step ``Encoder.encode_packed`` (and so
``HDCPipeline.predict``) runs too — then
:func:`~repro.kernels.packed.bank_scores` and
:func:`~repro.classifiers.base.top_k_from_scores`.

All of the bit-level machinery lives in :mod:`repro.kernels` — this module
owns only serving concerns: compilation (packed when the classifier supports
the shared scoring rule, dense otherwise), metadata, and thread-safety.  The
engine is safe to share across threads — which is exactly how the batching
scheduler and HTTP server use it.  The only mutable
state it touches is the encoder's RNG (consumed for ``sgn(0)`` tie-breaks
when the encoder was configured with ``tie_break="random"``); those draws are
serialised behind an internal lock because ``np.random.Generator`` is not
thread-safe.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.classifiers.base import top_k_from_scores
from repro.classifiers.pipeline import HDCPipeline
from repro.hdc.hypervector import sign_with_ties
from repro.kernels.packed import PackedHypervectors, bank_scores
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

        self.name = str(name)
        self.pipeline = pipeline
        self.encoder = pipeline.encoder
        self.classifier = classifier
        self.metadata = dict(metadata or {})
        self.dimension = int(classifier.class_hypervectors_.shape[1])
        self.num_classes = int(classifier.class_hypervectors_.shape[0])
        #: width of the feature rows the engine scores
        self.num_features = int(self.encoder.num_features)

        #: ``"packed"`` (XOR + popcount) when the classifier scores with the
        #: shared dot-similarity rule, ``"dense"`` (its own
        #: ``decision_scores``) otherwise.
        self.mode = "packed" if classifier.supports_packed_scoring() else "dense"

        # The words the packed scoring rule keeps resident: the packed class
        # hypervectors for shared-rule classifiers, the flat K*N model bank
        # for ensembles.  Building it here both pre-warms the classifier's
        # cache (scoring after this point is read-only, hence thread-safe)
        # and makes first-request latency exclude the pack.
        self._packed_classes: Optional[PackedHypervectors] = None
        if self.mode == "packed":
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

    # ---------------------------------------------------------------- encoding
    def _validate(self, features: np.ndarray) -> np.ndarray:
        """Request validation, done exactly once per public entry point."""
        return check_matrix(
            features, "features", dtype=np.float64, n_columns=self.num_features
        )

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode raw features to bipolar hypervectors via the fused kernels.

        Bit-identical to ``self.encoder.encode`` (the pre-sign accumulation is
        always identical; the ``sgn(0)`` tie-break follows the encoder's
        configuration, so deterministic — ``tie_break="positive"`` — encoders
        match exactly).
        """
        return self._encode_dense(self._validate(features))

    def _encode_dense(self, features: np.ndarray) -> np.ndarray:
        """The dense fallback's encode: *features* must be validated."""
        raw = self._accumulator(self.encoder._quantize(features))
        with self._rng_lock:
            return sign_with_ties(
                raw, rng=self.encoder.rng, tie_break=self.encoder.tie_break
            )

    # --------------------------------------------------------------- inference
    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """``(n, K)`` class scores; higher is more similar.

        Packed mode encodes through the encoder's packed step (the one
        :meth:`~repro.hdc.encoders.Encoder.encode_packed` runs, with the
        ``sgn(0)`` draws under the engine's lock) and returns the integer
        dot similarity ``D - 2 * hamming_bits`` from one XOR + popcount
        against the resident bank; the ensemble's score is the max over
        each class's rows.  Both equal the dense scores exactly.  Dense mode
        defers to the classifier's own rule.
        """
        features = self._validate(features)
        if self.mode == "dense":
            return self.classifier.decision_scores(self._encode_dense(features))
        words = self.encoder._pack(features, self._rng_lock)
        return bank_scores(
            words, self._packed_classes.words, self.dimension, self.num_classes
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict integer class labels for a batch of raw feature rows."""
        return np.argmax(self.decision_scores(features), axis=1)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Softmax class probabilities over cosine-normalised scores.

        Packed scores are divided by ``D`` (mapping the integer dot similarity
        onto cosine similarity in ``[-1, 1]``) so binary and dense models
        yield comparable distributions; the softmax temperature of 0.1 keeps
        the output informative rather than saturated.
        """
        scores = np.asarray(self.decision_scores(features), dtype=np.float64)
        if self.mode == "packed":
            scores = scores / float(self.dimension)
        scaled = scores / 0.1
        scaled -= scaled.max(axis=1, keepdims=True)
        exponentials = np.exp(scaled)
        return exponentials / exponentials.sum(axis=1, keepdims=True)

    def top_k(self, features: np.ndarray, k: int = 5) -> Tuple[np.ndarray, np.ndarray]:
        """The ``k`` best classes per sample, best first.

        Returns ``(labels, scores)``, both ``(n, k)``; ``k`` is clipped to the
        number of classes.
        """
        return top_k_from_scores(self.decision_scores(features), k)

    # ------------------------------------------------------------------- misc
    def warmup(self) -> None:
        """Run one dummy prediction so first-request latency excludes
        first-call costs (NumPy buffer allocation, BLAS start-up)."""
        dummy = np.zeros((1, self.num_features), dtype=np.float64)
        self.predict(dummy)

    @property
    def packed_storage_bytes(self) -> int:
        """Bytes of resident packed model storage (0 in dense mode).

        For ensemble models this counts the whole ``K * N`` packed bank —
        the paper's linear-in-``N`` storage growth, as a serving metric.
        """
        return self._packed_classes.storage_bytes if self._packed_classes else 0

    def info(self) -> dict:
        """JSON-ready description of the compiled engine: its mode, shape and
        the bytes it keeps resident (perfbench reads ``table_bytes``)."""
        return {
            "name": self.name,
            "mode": self.mode,
            "dimension": self.dimension,
            "num_classes": self.num_classes,
            "packed_rows": len(self._packed_classes) if self._packed_classes else 0,
            "num_features": self.encoder.num_features,
            "encoder": type(self.encoder).__name__,
            "classifier": type(self.classifier).__name__,
            "packed_storage_bytes": self.packed_storage_bytes,
            "table_bytes": getattr(self._accumulator, "table_bytes", 0),
            "metadata": self.metadata,
        }


__all__ = ["PackedInferenceEngine"]
