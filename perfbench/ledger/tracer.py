"""In-memory spans recorded around calls into the program's public functions.

The benchmark does not edit the program: :class:`Tracer` replaces each
:class:`Target` callable with a wrapper that records one :class:`Span`
(name, layer, start, end, parent, request key) and restores the original on
:meth:`Tracer.uninstall`.  Spans stay in memory until the run ends.  Times
come from ``time.monotonic_ns`` (``CLOCK_MONOTONIC``), which every process
on the host shares, so client spans and server spans share one time axis.

A span's *self time* is its duration minus the durations of its direct
children; children always run on the parent's thread, inside its interval.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

#: Layer name of the benchmark's own root spans (one per timed operation).
OP_LAYER = "op"


def row_key(row: Any) -> str:
    """Stable identity of one feature row, equal in every process.

    The client hashes the float64 row it sends; the server hashes the row it
    parsed from JSON, which round-trips float64 exactly.
    """
    data = np.ascontiguousarray(np.asarray(row, dtype=np.float64))
    return hashlib.blake2b(data.tobytes(), digest_size=8).hexdigest()


class Span:
    """One timed call.  ``request`` keys a single row; ``keys`` a batch."""

    __slots__ = (
        "sid", "name", "layer", "start", "end", "parent", "rows", "request", "keys", "flag",
    )

    def __init__(self, sid, name, layer, start, parent=None, rows=None,
                 request=None, keys=None, flag=False, end=None):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.rows = rows
        self.request = request
        self.keys = keys
        self.flag = flag

    @property
    def duration(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(**data)


@dataclass(frozen=True)
class Target:
    """A callable to wrap, named ``"module:Qual.name"``.

    ``rows``, ``request``, ``keys`` and ``flag`` receive the call's
    positional arguments (``self`` first for methods) and extract the span's
    row count, single-row request key, batch row keys and a boolean marker.
    """

    path: str
    name: str
    layer: str
    rows: Optional[Callable[[tuple], Optional[int]]] = None
    request: Optional[Callable[[tuple], Optional[str]]] = None
    keys: Optional[Callable[[tuple], Optional[List[str]]]] = None
    flag: Optional[Callable[[tuple], bool]] = None


def _extract(extractor, args):
    if extractor is None:
        return None
    try:
        return extractor(args)
    except (LookupError, TypeError, ValueError, AttributeError):
        return None


class Tracer:
    """Records spans from wrapped callables and from explicit :meth:`span` blocks."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str, rows=None, request=None, keys=None,
             flag=False) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            request = request if request is not None else parent.request
            keys = keys if keys is not None else parent.keys
        span = Span(next(self._ids), name, layer, time.monotonic_ns(),
                    parent=parent.sid if parent is not None else None, rows=rows,
                    request=request, keys=keys, flag=bool(flag))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, layer: str = OP_LAYER, **attrs) -> Iterator[Span]:
        """Record one span around a ``with`` block."""
        opened = self.open(name, layer, **attrs)
        try:
            yield opened
        finally:
            self.close(opened)

    # -------------------------------------------------------------- patching
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target that resolves; record the rest in :attr:`missing`."""
        for target in targets:
            module_name, _, qualname = target.path.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = qualname.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            # An inherited method is shadowed on *owner*, then deleted again.
            had_own = attribute in vars(owner)
            setattr(owner, attribute, self._wrap(target, original))
            self._patches.append((owner, attribute, original, had_own))

    def uninstall(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attribute, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(
                target.name,
                target.layer,
                rows=_extract(target.rows, args),
                request=_extract(target.request, args),
                keys=_extract(target.keys, args),
                flag=bool(_extract(target.flag, args)),
            )
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    # ------------------------------------------------------------- export
    def export(self) -> List[dict]:
        return [span.to_dict() for span in list(self.spans)]


# ------------------------------------------------------------------ analysis
def children_index(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    index: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            index.setdefault(span.parent, []).append(span)
    return index


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id → duration minus the durations of its direct children (ns)."""
    index = children_index(spans)
    return {
        span.sid: span.duration - sum(child.duration for child in index.get(span.sid, ()))
        for span in spans
    }


def subtree(root: Span, index: Dict[int, List[Span]]) -> List[Span]:
    """*root* and every span nested under it."""
    found, pending = [], [root]
    while pending:
        span = pending.pop()
        found.append(span)
        pending.extend(index.get(span.sid, ()))
    return found
