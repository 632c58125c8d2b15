"""Shared-memory model residency for the multiprocess serving tier.

The packed inference bank — ``(K, ceil(D/64))`` words for shared-rule
classifiers, the flat ``(K * N, ceil(D/64))`` bank for the SearcHD-style
ensemble — is the only large artefact a serving worker needs, and it is
read-only after training.  :class:`SharedModelStore` therefore publishes it
once into a ``multiprocessing.shared_memory`` segment; every worker process
maps the *same physical pages* and wraps them in a zero-copy
:class:`~repro.kernels.packed.PackedHypervectors` view, so per-worker memory
grows by the encoder tables only, never by the model bank.

Three pieces compose the residency story:

* :class:`SharedModelStore` — parent-side publisher.  ``publish`` is
  refcounted per key (two dispatchers serving the same model version share
  one segment); ``release`` unlinks the segment when the last reference
  drops, and ``close`` unlinks everything.  The store enforces no residency
  cap of its own: the serving layer bounds fleet memory by closing whole
  worker pools (``ServeApp(max_resident_banks=...)``), and each closed pool
  releases its bank.
* :class:`SharedBankHandle` — the picklable address of a published bank
  (segment name + layout), small enough to ride a pipe to a worker.
* :func:`attach_bank` / :class:`AttachedBank` — worker-side mapping of a
  handle back into a read-only packed view.

:func:`make_worker_spec` bundles a handle with the *small* remaining engine
state (encoder tables, per-class hypervectors, ensemble shape) into a
:class:`WorkerModelSpec` from which :func:`build_worker_engine` reconstructs
a full :class:`~repro.serve.engine.PackedInferenceEngine` inside the worker —
scoring against the shared words via
:meth:`~repro.classifiers.base.HDCClassifierBase.adopt_packed_bank`.
"""

from __future__ import annotations

import copy
import logging
import threading
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.io import FrozenClassifier, FrozenEnsembleClassifier
from repro.kernels.packed import PackedHypervectors

_WORD_BYTES = 8

_LOG = logging.getLogger("repro.cluster.shared")


@dataclass(frozen=True)
class SharedBankHandle:
    """Picklable address of a published packed bank: segment name + layout."""

    segment: str
    rows: int
    num_words: int
    dimension: int

    @property
    def nbytes(self) -> int:
        return self.rows * self.num_words * _WORD_BYTES


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without claiming cleanup ownership.

    Only the publishing :class:`SharedModelStore` may unlink a segment.  On
    Python 3.13+ ``track=False`` keeps the attaching process's resource
    tracker out of the picture; earlier versions (3.10–3.12) never register
    attachments in the first place, so the plain constructor is already
    ownership-free there.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg, and no attach tracking
        return shared_memory.SharedMemory(name=name)


class AttachedBank:
    """A worker-side, read-only, zero-copy view over a published bank."""

    def __init__(self, handle: SharedBankHandle):
        self.handle = handle
        self._segment = _attach_segment(handle.segment)
        words = np.ndarray(
            (handle.rows, handle.num_words),
            dtype=np.uint64,
            buffer=self._segment.buf,
        )
        words.flags.writeable = False
        self.packed = PackedHypervectors(words=words, dimension=handle.dimension)

    def close(self) -> None:
        """Unmap the segment (best effort: live NumPy views pin the buffer)."""
        self.packed = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a view outlived the bank
            pass

    def __enter__(self) -> "AttachedBank":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def attach_bank(handle: SharedBankHandle) -> AttachedBank:
    """Map a published bank into this process as a read-only packed view."""
    return AttachedBank(handle)


class _Published:
    """Store-internal state for one key: its segment, handle and refcount."""

    __slots__ = ("segment", "handle", "refcount")

    def __init__(self, segment: shared_memory.SharedMemory, handle: SharedBankHandle):
        self.segment = segment
        self.handle = handle
        self.refcount = 1

    def unlink(self) -> None:
        self.segment.close()
        try:
            self.segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class SharedModelStore:
    """Refcounted registry of packed model banks published into shared memory.

    Thread-safe.  Keys are caller-chosen strings — the serving layer uses
    ``"<model>@v<version>"`` so hot-swapping a model version naturally
    publishes a fresh segment while the old one lives exactly as long as the
    dispatchers still sharding onto it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._published: Dict[str, _Published] = {}
        self._closed = False

    def publish(self, key: str, packed: PackedHypervectors) -> SharedBankHandle:
        """Copy *packed* into a shared segment (or ref the existing one).

        Publishing an already-published key increments its refcount and
        returns the existing handle — the words are assumed immutable for a
        given key, which the versioned key discipline guarantees.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedModelStore is closed")
            entry = self._published.get(key)
            if entry is not None:
                entry.refcount += 1
                return entry.handle
            words = np.ascontiguousarray(packed.words, dtype=np.uint64)
            segment = shared_memory.SharedMemory(create=True, size=max(1, words.nbytes))
            try:
                view = np.ndarray(words.shape, dtype=np.uint64, buffer=segment.buf)
                view[:] = words
                del view
                handle = SharedBankHandle(
                    segment=segment.name,
                    rows=words.shape[0],
                    num_words=words.shape[1],
                    dimension=packed.dimension,
                )
            except BaseException:
                segment.close()
                segment.unlink()
                raise
            self._published[key] = _Published(segment, handle)
            return handle

    def release(self, key: str) -> bool:
        """Drop one reference; unlink the segment when the last one goes.

        Idempotent: releasing an unknown (or already fully released) key is
        a logged no-op, so teardown paths that race each other never raise.
        Returns ``True`` when the key was fully torn down now.
        """
        with self._lock:
            entry = self._published.get(key)
            if entry is None:
                _LOG.warning("release of unknown shared bank %r ignored", key)
                return False
            entry.refcount -= 1
            if entry.refcount > 0:
                return False
            del self._published[key]
            entry.unlink()
            return True

    def close(self) -> None:
        """Unlink every remaining segment and refuse further publishes."""
        with self._lock:
            self._closed = True
            entries, self._published = list(self._published.values()), {}
        for entry in entries:
            entry.unlink()

    # --------------------------------------------------------------- queries
    def handle(self, key: str) -> SharedBankHandle:
        with self._lock:
            entry = self._published.get(key)
            if entry is None:
                raise KeyError(f"unknown shared bank {key!r}")
            return entry.handle

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._published)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._published

    def __len__(self) -> int:
        with self._lock:
            return len(self._published)

    @property
    def resident_bytes(self) -> int:
        """Total bytes of packed model storage currently published."""
        with self._lock:
            return sum(entry.handle.nbytes for entry in self._published.values())

    def __enter__(self) -> "SharedModelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------- worker rebuild
@dataclass
class WorkerModelSpec:
    """Everything a worker needs to rebuild a serving engine.

    Deliberately *excludes* the heavy packed bank — that is addressed by
    ``bank_handle`` and mapped zero-copy — so the spec stays cheap to ship
    even under the ``spawn`` start method.  ``ensemble_shape`` is the
    ``(K, N, D)`` of a SearcHD model bank, or ``None`` for shared-rule
    classifiers.
    """

    name: str
    encoder: object
    class_hypervectors: np.ndarray
    ensemble_shape: Optional[Tuple[int, int, int]]
    bank_handle: SharedBankHandle
    metadata: dict


def make_worker_spec(engine, bank_handle: SharedBankHandle) -> WorkerModelSpec:
    """Extract the small worker-side state from a parent-process engine.

    The encoder is shallow-copied with its compiled accumulator dropped (the
    fused LUT can run to megabytes and is rebuilt once per worker), so the
    parent's encoder keeps its compiled tables untouched.
    """
    if engine.mode != "packed":
        raise ValueError(
            "cluster serving requires the packed scoring path; "
            f"engine {engine.name!r} compiled in {engine.mode!r} mode"
        )
    encoder = copy.copy(engine.encoder)
    encoder._accumulator = None
    encoder._accumulator_budget = None
    bank = getattr(engine.classifier, "model_hypervectors_", None)
    return WorkerModelSpec(
        name=engine.name,
        encoder=encoder,
        class_hypervectors=engine.classifier.class_hypervectors_,
        ensemble_shape=tuple(bank.shape) if bank is not None else None,
        bank_handle=bank_handle,
        metadata=dict(engine.metadata),
    )


class _SharedBankEnsemble(FrozenEnsembleClassifier):
    """Worker-side ensemble carrier whose dense bank never left the parent.

    Its ``model_hypervectors_`` is a shape-only broadcast stub (the real
    words live in the shared segment), so the dense scoring path must be
    loudly unavailable rather than silently wrong.
    """

    def decision_scores(self, hypervectors):  # pragma: no cover - guard path
        raise RuntimeError(
            "the dense model bank is not resident in this worker; "
            "only packed scoring is available"
        )

    def _score_bank(self):  # pragma: no cover - guard path
        raise RuntimeError("the dense model bank is not resident in this worker")


def build_worker_engine(spec: WorkerModelSpec):
    """Reconstruct a ``PackedInferenceEngine`` over the shared bank.

    Returns ``(attached_bank, engine)``; the caller owns the attachment and
    must keep it alive for the engine's lifetime (the engine's resident
    words *are* the mapped segment).
    """
    from repro.classifiers.pipeline import HDCPipeline
    from repro.serve.engine import PackedInferenceEngine

    attached = attach_bank(spec.bank_handle)
    if spec.ensemble_shape is not None:
        num_classes, models_per_class, dimension = spec.ensemble_shape
        classifier = _SharedBankEnsemble(models_per_class=models_per_class)
        # Shape-only stand-in: packed scoring reads the bank's *shape* from
        # this attribute and its *words* from the shared segment, so the
        # dense (K, N, D) array never crosses the process boundary.
        classifier.model_hypervectors_ = np.broadcast_to(
            np.zeros(1, dtype=np.int8), (num_classes, models_per_class, dimension)
        )
    else:
        classifier = FrozenClassifier(tie_break=spec.encoder.tie_break)
    classifier.class_hypervectors_ = spec.class_hypervectors
    classifier.num_classes_ = int(spec.class_hypervectors.shape[0])

    pipeline = HDCPipeline(spec.encoder, classifier)
    pipeline._fitted = True
    engine = PackedInferenceEngine(
        pipeline,
        name=spec.name,
        mode="packed",
        metadata=spec.metadata,
        packed_bank=attached.packed,
    )
    return attached, engine


__all__ = [
    "AttachedBank",
    "SharedBankHandle",
    "SharedModelStore",
    "WorkerModelSpec",
    "attach_bank",
    "build_worker_engine",
    "make_worker_spec",
]
