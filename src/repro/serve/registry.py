"""Model registry: the fixed set of engines a server answers for.

A serving process fronts a set of models fixed at start-up, one engine per
name.  :class:`ModelRegistry` compiles each model when it is registered, so a
file that cannot be loaded fails before the server listens, and every model
stays loaded: a served LeHDC model is one packed class bank plus the encoder's
tables (0.57 MB at the ``serve-keepalive`` shape; 12.6 and 15.9 MB at
D=10000 with the ISOLET and MNIST shapes).  The map is filled before the
server starts and only read after that.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.classifiers.pipeline import HDCPipeline
from repro.serve.engine import PackedInferenceEngine

ModelSource = Union[str, Path, PackedInferenceEngine, HDCPipeline]


class ModelRegistry:
    """Name → compiled :class:`PackedInferenceEngine`, one per name."""

    def __init__(self):
        self._engines: Dict[str, PackedInferenceEngine] = {}
        self._paths: Dict[str, Optional[Path]] = {}

    def register(self, name: str, source: ModelSource) -> None:
        """Compile *source* now and serve it as *name*.

        ``source`` may be a saved-model path (loaded and compiled by
        :meth:`PackedInferenceEngine.from_file`), a compiled
        :class:`PackedInferenceEngine` (kept as given), or a fitted
        :class:`HDCPipeline` (compiled).  A name already registered raises
        ``ValueError``.
        """
        if name in self._engines:
            raise ValueError(f"model {name!r} is already registered")
        path: Optional[Path] = None
        if isinstance(source, (str, Path)):
            path = Path(source)
            engine = PackedInferenceEngine.from_file(path, name=name)
        elif isinstance(source, PackedInferenceEngine):
            engine = source
        elif isinstance(source, HDCPipeline):
            engine = PackedInferenceEngine(source, name=name)
        else:
            raise TypeError(
                "source must be a path, PackedInferenceEngine or HDCPipeline, "
                f"got {type(source).__name__}"
            )
        self._engines[name] = engine
        self._paths[name] = path

    def get(self, name: str) -> PackedInferenceEngine:
        """The engine registered as *name*; ``KeyError`` for an unknown name."""
        return self._engines[name]

    def names(self) -> List[str]:
        return sorted(self._engines)

    def __contains__(self, name: str) -> bool:
        return name in self._engines

    def list_models(self) -> List[dict]:
        """JSON-ready listing: one row per registered name."""
        rows = []
        for name in self.names():
            engine, path = self._engines[name], self._paths[name]
            metadata = engine.metadata
            rows.append(
                {
                    "name": name,
                    "path": str(path) if path else None,
                    "strategy": metadata.get("strategy"),
                    "dimension": metadata.get("dimension", engine.dimension),
                    "num_classes": metadata.get("num_classes", engine.num_classes),
                    # Ensemble models carry their per-class sub-model count
                    # (None for single-hypervector strategies), so operators
                    # can see the K*N size of a SearcHD bank.
                    "models_per_class": metadata.get("models_per_class"),
                }
            )
        return rows


__all__ = ["ModelRegistry"]
