"""Model registry: versioned, hot-swappable, LRU-bounded engine residency.

A serving process typically fronts several models (one per dataset, plus
candidate versions being rolled out).  :class:`ModelRegistry` owns that
lifecycle:

* ``register`` adds a model version from a saved ``.npz`` path (loaded
  lazily on first use) or from an already-built engine/pipeline;
* ``promote`` flips which version a bare model name resolves to — the
  hot-swap primitive: in-flight requests finish on the old engine, the next
  batch resolves the new one;
* ``evict`` drops a version (or a whole model);
* at most ``max_resident`` *path-backed* engines are kept in memory; the
  least-recently-used one is compiled away and transparently reloaded from
  its file on the next request.  Engines registered without a backing path
  cannot be reloaded and are therefore pinned.
"""

from __future__ import annotations

import itertools
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.classifiers.pipeline import HDCPipeline
from repro.serve.engine import PackedInferenceEngine

ModelSource = Union[str, Path, PackedInferenceEngine, HDCPipeline]


class _Entry:
    """One registered model version."""

    __slots__ = ("version", "path", "metadata", "engine", "pinned", "last_used")

    def __init__(self, version, path, metadata, engine, pinned):
        self.version = version
        self.path = path
        self.metadata = metadata
        self.engine = engine
        self.pinned = pinned
        self.last_used = 0

    @property
    def resident(self) -> bool:
        return self.engine is not None


class ModelRegistry:
    """Thread-safe name → versioned engine resolution with an LRU cap.

    Parameters
    ----------
    max_resident:
        Maximum number of path-backed engines kept compiled in memory at
        once.  Pinned (in-memory-only) engines do not count toward the cap.
    """

    def __init__(self, max_resident: int = 4):
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.max_resident = int(max_resident)
        self._lock = threading.RLock()
        self._models: Dict[str, Dict[int, _Entry]] = {}
        self._default_version: Dict[str, int] = {}
        self._clock = itertools.count(1)

    # ------------------------------------------------------------- lifecycle
    def register(
        self,
        name: str,
        source: ModelSource,
        version: Optional[int] = None,
        promote: bool = True,
    ) -> int:
        """Add a model version; returns the version number assigned.

        ``source`` may be a saved-model path (validated now, loaded lazily),
        a compiled :class:`PackedInferenceEngine`, or a fitted
        :class:`HDCPipeline` (compiled immediately).  With ``promote=True``
        (default) the new version becomes what bare ``name`` resolves to.
        """
        path: Optional[Path] = None
        engine: Optional[PackedInferenceEngine] = None
        metadata: dict = {}
        if isinstance(source, (str, Path)):
            from repro.io import read_model_metadata

            path = Path(source)
            metadata = read_model_metadata(path)  # raises early on bad files
        elif isinstance(source, PackedInferenceEngine):
            engine = source
            metadata = dict(engine.metadata)
        elif isinstance(source, HDCPipeline):
            engine = PackedInferenceEngine(source, name=name)
            metadata = {}
        else:
            raise TypeError(
                "source must be a path, PackedInferenceEngine or HDCPipeline, "
                f"got {type(source).__name__}"
            )

        with self._lock:
            versions = self._models.setdefault(name, {})
            if version is None:
                version = max(versions) + 1 if versions else 1
            version = int(version)
            if version in versions:
                raise ValueError(f"model {name!r} already has a version {version}")
            entry = _Entry(version, path, metadata, engine, pinned=engine is not None)
            versions[version] = entry
            if promote or name not in self._default_version:
                self._default_version[name] = version
            self._enforce_residency_cap()
            return version

    def promote(self, name: str, version: int) -> None:
        """Make *version* the default resolution for *name*."""
        with self._lock:
            entry = self._find(name, version)
            self._default_version[name] = entry.version

    def evict(self, name: str, version: Optional[int] = None) -> None:
        """Remove one version, or every version of *name* when omitted."""
        with self._lock:
            versions = self._models.get(name)
            if not versions:
                raise KeyError(f"unknown model {name!r}")
            if version is None:
                del self._models[name]
                self._default_version.pop(name, None)
                return
            self._find(name, version)
            del versions[int(version)]
            if not versions:
                del self._models[name]
                self._default_version.pop(name, None)
            elif self._default_version.get(name) == int(version):
                self._default_version[name] = max(versions)

    # ------------------------------------------------------------ resolution
    def get(self, name: str, version: Optional[int] = None) -> PackedInferenceEngine:
        """Resolve (and if needed load) the engine for *name*.

        Without *version* the promoted default is returned.  Access refreshes
        the entry's LRU stamp; loading may evict the least-recently-used
        path-backed engine once more than ``max_resident`` are resident.
        """
        with self._lock:
            entry = self._find(name, version)
            entry.last_used = next(self._clock)
            if entry.engine is not None:
                return entry.engine
            path, engine_name = entry.path, f"{name}@v{entry.version}"
        # Decompressing the archive and compiling the encoder tables can take
        # hundreds of milliseconds; doing it outside the lock keeps every
        # other model serving.  Two threads may race to load the same entry —
        # one load is discarded, which is cheaper than serialising all traffic.
        engine = PackedInferenceEngine.from_file(path, name=engine_name)
        with self._lock:
            entry = self._find(name, version)
            if entry.engine is None:
                entry.engine = engine
                self._enforce_residency_cap(keep=entry)
            return entry.engine

    def resolver(self, name: str, version: Optional[int] = None):
        """A zero-argument callable resolving the engine on every call.

        Hand this to :class:`~repro.serve.batching.BatchScheduler` so batches
        always run on the currently promoted version.
        """
        return lambda: self.get(name, version)

    # --------------------------------------------------------------- queries
    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models

    def list_models(self) -> List[dict]:
        """JSON-ready listing of every registered version."""
        with self._lock:
            rows = []
            for name in sorted(self._models):
                for version, entry in sorted(self._models[name].items()):
                    rows.append(
                        {
                            "name": name,
                            "version": version,
                            "default": self._default_version.get(name) == version,
                            "resident": entry.resident,
                            "path": str(entry.path) if entry.path else None,
                            "strategy": entry.metadata.get("strategy"),
                            "dimension": entry.metadata.get(
                                "dimension",
                                entry.engine.dimension if entry.engine else None,
                            ),
                            "num_classes": entry.metadata.get(
                                "num_classes",
                                entry.engine.num_classes if entry.engine else None,
                            ),
                            # Ensemble models carry their per-class sub-model
                            # count (None for single-hypervector strategies),
                            # so operators can see the K*N residency cost of
                            # a SearcHD bank before it is promoted.
                            "models_per_class": entry.metadata.get("models_per_class"),
                        }
                    )
            return rows

    # -------------------------------------------------------------- internals
    def _find(self, name: str, version: Optional[int] = None) -> _Entry:
        versions = self._models.get(name)
        if not versions:
            raise KeyError(f"unknown model {name!r}")
        if version is None:
            version = self._default_version[name]
        entry = versions.get(int(version))
        if entry is None:
            raise KeyError(f"model {name!r} has no version {version}")
        return entry

    def _enforce_residency_cap(self, keep: Optional[_Entry] = None) -> None:
        """Drop least-recently-used path-backed engines over ``max_resident``.

        *keep* — the entry whose engine is being installed — is never a
        victim: loads that finished while it was loading carry newer LRU
        stamps, and evicting it would hand its caller ``None``.
        """
        resident = [
            entry
            for versions in self._models.values()
            for entry in versions.values()
            if entry.resident and not entry.pinned
        ]
        excess = len(resident) - self.max_resident
        if excess <= 0:
            return
        victims = sorted(
            (entry for entry in resident if entry is not keep),
            key=lambda entry: entry.last_used,
        )
        for entry in victims[:excess]:
            entry.engine = None  # reloaded from entry.path on next access


__all__ = ["ModelRegistry"]
