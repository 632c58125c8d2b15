"""Request-scoped tracing: spans, context propagation, and the JSONL sink.

This module gives every request through the serving stack a *trace*: a tree
of timed spans, written one line per span.

Design constraints, in priority order:

1. **The unsampled path must cost nothing.**  When tracing is disabled or a
   request is not sampled, :meth:`Tracer.start_span` returns one shared
   no-op span — no allocation, no clock reads, no lock.  That is what lets
   the serving benchmarks run with tracing compiled in.
2. **One writer.**  The JSONL file is written by one sink behind a thread
   lock.
3. **Explicit parents beat ambient magic across boundaries.**  Within a
   thread, spans nest through a thread-local stack; across threads, a
   :class:`SpanContext` is handed over explicitly.

Trace-file schema (one JSON object per line)::

    {"v": 1, "trace": "<16 hex>", "span": "<16 hex>", "parent": "<16 hex>"|null,
     "name": "<stage>", "ts": <epoch seconds>, "dur_ms": <float>,
     "pid": <int>, "attrs": {...}}

Configuration: build ``Tracer(JsonlSink(path), sample_rate)`` and hand it to
the :class:`~repro.serve.server.ServeApp` (``repro serve --trace FILE
--trace-sample P`` does exactly that).
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
import uuid
from collections import deque
from typing import Dict, List, NamedTuple, Optional

SCHEMA_VERSION = 1


class SpanContext(NamedTuple):
    """The address of a span: enough to parent a child in any thread."""

    trace_id: str
    span_id: str


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class _NullSpan:
    """The shared do-nothing span handed out on every unsampled path."""

    __slots__ = ()

    trace_id = None
    span_id = None
    context = None
    sampled = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, key, value) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SuppressedSpan(_NullSpan):
    """The no-op span for a request whose root lost the sampling coin.

    Unlike :data:`NULL_SPAN` it still participates in the thread-local
    nesting discipline (a depth counter, not a stack — nothing to allocate),
    so spans opened *inside* an unsampled request are suppressed too instead
    of flipping fresh root coins and polluting the file with orphan traces.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __enter__(self) -> "_SuppressedSpan":
        local = self._tracer._local
        local.suppressed = getattr(local, "suppressed", 0) + 1
        return self

    def __exit__(self, *exc_info) -> bool:
        self._tracer._local.suppressed -= 1
        return False


class Span:
    """A recording span; use as a context manager (emitted on exit)."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attrs",
        "start_time",
        "duration_s",
        "_start_perf",
        "_tracer",
    )

    sampled = True

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Optional[dict] = None,
    ):
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attrs = dict(attrs) if attrs else {}
        self.start_time = time.time()
        self.duration_s = 0.0
        self._start_perf = time.perf_counter()

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, key: str, value) -> None:
        """Attach one attribute (must be JSON-serialisable)."""
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.duration_s = time.perf_counter() - self._start_perf
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._pop(self)
        self._tracer._emit(self)
        return False


class JsonlSink:
    """Append-only JSONL trace writer (thread-safe; one process only)."""

    def __init__(self, path):
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            # Spans are written once per request, not per sample — flushing
            # keeps the file tail-able and crash-complete at negligible cost.
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()


class MemorySink:
    """In-memory sink collecting span records (tests, trace assertions).

    Retention is bounded: only the most recent ``max_records`` spans are
    kept, so a long-lived tracer pointed at a MemorySink cannot grow without
    limit.  ``dropped`` counts what aged out.
    """

    #: Default retention: plenty for tests, bounded for soaks.
    DEFAULT_MAX_RECORDS = 10_000

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS):
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.max_records = int(max_records)
        self.dropped = 0
        self._records: "deque[dict]" = deque(maxlen=self.max_records)
        self._lock = threading.Lock()

    @property
    def records(self) -> List[dict]:
        with self._lock:
            return list(self._records)

    def write(self, record: dict) -> None:
        with self._lock:
            if len(self._records) == self.max_records:
                self.dropped += 1
            self._records.append(record)

    def close(self) -> None:
        pass


class Tracer:
    """Creates spans, decides sampling, and owns the sink.

    Parameters
    ----------
    sink:
        Anything with ``write(record: dict)`` / ``close()``; ``None``
        disables tracing entirely (every span is the shared null span).
    sample_rate:
        Probability in ``[0, 1]`` that a *root* span — and therefore its
        whole trace — is recorded.  Children of a sampled parent are always
        recorded; children of an unsampled parent never are.
    seed:
        Optional seed for the sampling RNG (deterministic tests).
    """

    def __init__(self, sink=None, sample_rate: float = 1.0, seed: Optional[int] = None):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sink = sink
        self.sample_rate = float(sample_rate)
        self._rng = random.Random(seed)
        self._local = threading.local()
        self._suppressed_span = _SuppressedSpan(self)

    # ------------------------------------------------------------------ spans
    def start_span(self, name: str, parent=None, attrs: Optional[dict] = None):
        """Open a span; use the result as a context manager.

        ``parent`` may be a :class:`SpanContext` (explicit cross-thread
        parenting) or ``None``, in which case the span nests
        under the calling thread's current span — or starts a new trace
        (root), which is where the sampling decision is made.
        """
        if self.sink is None:
            return NULL_SPAN
        if parent is None:
            stack = getattr(self._local, "stack", None)
            if stack:
                current = stack[-1]
                return Span(self, name, current.trace_id, current.span_id, attrs)
            if getattr(self._local, "suppressed", 0):
                # Inside an unsampled request: stay suppressed rather than
                # minting an orphan root trace.
                return self._suppressed_span
            # Root span: the one place the sampling coin is flipped.
            if self.sample_rate < 1.0 and self._rng.random() >= self.sample_rate:
                return self._suppressed_span
            return Span(self, name, _new_id(), None, attrs)
        if isinstance(parent, SpanContext):
            return Span(self, name, parent.trace_id, parent.span_id, attrs)
        if parent is NULL_SPAN or parent is None:  # pragma: no cover - defensive
            return NULL_SPAN
        raise TypeError(f"parent must be a SpanContext or None, got {type(parent)!r}")

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    # -------------------------------------------------------------- internals
    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - unbalanced exits
            stack.remove(span)

    def _emit(self, span: Span) -> None:
        """Write one finished span in the trace-file schema."""
        sink = self.sink
        if sink is None:  # pragma: no cover - sink closed mid-span
            return
        sink.write(
            {
                "v": SCHEMA_VERSION,
                "trace": span.trace_id,
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "ts": span.start_time,
                "dur_ms": span.duration_s * 1e3,
                "pid": os.getpid(),
                "attrs": span.attrs,
            }
        )


def parse_trace_file(path) -> List[Dict]:
    """Read a JSONL trace file into a list of span dictionaries.

    Raises ``ValueError`` on any malformed line — the CI smoke job leans on
    this being strict.
    """
    spans: List[Dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: invalid JSON: {error}")
            for key in ("trace", "span", "name", "ts", "dur_ms"):
                if key not in record:
                    raise ValueError(
                        f"{path}:{line_number}: span record is missing {key!r}"
                    )
            spans.append(record)
    return spans


__all__ = [
    "SCHEMA_VERSION",
    "JsonlSink",
    "MemorySink",
    "NULL_SPAN",
    "Span",
    "SpanContext",
    "Tracer",
    "parse_trace_file",
]
