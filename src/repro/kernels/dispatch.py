"""Named-kernel registry, backend selection, and the float dtype policy.

The hot-path kernels that shard over rows (packed Hamming scoring, packed
training updates, float matmuls) are published here under a stable name
with one implementation per *backend*.  Call sites resolve through
:func:`get_kernel`, so swapping the execution strategy — for example the
threaded backend on a multi-core host — is a configuration change, not a
code change.  This mirrors the plug-in-estimator discipline hardware
HDC stacks use for their compute kernels: the algorithm is fixed, the
executor is swappable.

Backends
--------
``numpy``
    The default single-threaded NumPy implementation.  Always registered;
    every other backend falls back to it for kernels it does not override.
``threaded``
    Shards the batch (row) axis of large kernels across a thread pool.
    Useful on multi-core hosts where the underlying ufuncs release the GIL;
    harmless (just extra dispatch) on single-core machines.

Selection order: an explicit :func:`set_backend` / :func:`use_backend` wins,
then the ``REPRO_KERNEL_BACKEND`` environment variable, then ``numpy``.  An
unknown name raises instead of silently running ``numpy``.

Float dtype policy
------------------
The NN substrate historically forced ``float64`` on every forward/backward
call.  The policy lives here now: :func:`float_dtype` returns the dtype used
when *introducing* floats (parameter initialisation, casting integer
hypervectors for training), defaulting to ``float32`` and overridable via
``REPRO_FLOAT_DTYPE``, :func:`set_float_dtype`, or the
:func:`use_float_dtype` context manager.  Arrays that are already floating
point are never silently up- or down-cast.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

DEFAULT_BACKEND = "numpy"

#: kernel name -> backend name -> implementation
_REGISTRY: Dict[str, Dict[str, Callable]] = {}

#: Backend forced via set_backend/use_backend; None defers to the environment.
_ACTIVE_BACKEND: Optional[str] = None

#: Dtype forced via set_float_dtype/use_float_dtype; None defers to the env.
_FLOAT_DTYPE: Optional[np.dtype] = None

_KNOWN_BACKENDS = ("numpy", "threaded")


# ------------------------------------------------------------------ backends
def register_kernel(name: str, backend: str = DEFAULT_BACKEND) -> Callable:
    """Decorator registering a kernel implementation under (*name*, *backend*)."""
    if backend not in _KNOWN_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_KNOWN_BACKENDS}")

    def decorate(function: Callable) -> Callable:
        _REGISTRY.setdefault(name, {})[backend] = function
        return function

    return decorate


def get_kernel(name: str, backend: Optional[str] = None) -> Callable:
    """Resolve *name* for the requested (or active) backend.

    Backends that do not override a kernel fall back to the ``numpy``
    implementation, so a partial backend is always usable.
    """
    implementations = _REGISTRY.get(name)
    if implementations is None:
        raise KeyError(
            f"no kernel registered under {name!r}; known: {sorted(_REGISTRY)}"
        )
    backend = backend if backend is not None else active_backend()
    implementation = implementations.get(backend)
    if implementation is None:
        implementation = implementations.get(DEFAULT_BACKEND)
    if implementation is None:  # pragma: no cover - registration bug
        raise KeyError(f"kernel {name!r} has no {backend!r} or numpy implementation")
    return implementation


def list_kernels() -> Dict[str, List[str]]:
    """Registered kernel names mapped to their available backends."""
    return {name: sorted(backends) for name, backends in sorted(_REGISTRY.items())}


def available_backends() -> List[str]:
    """All backend names any kernel is registered under."""
    found = set()
    for backends in _REGISTRY.values():
        found.update(backends)
    return sorted(found)


def active_backend() -> str:
    """The backend kernels currently resolve to.

    An unknown ``REPRO_KERNEL_BACKEND`` raises immediately (a typo like
    ``thread`` must not silently measure the numpy backend); the per-kernel
    numpy fallback in :func:`get_kernel` is only for *valid* backends that do
    not override a particular kernel.
    """
    if _ACTIVE_BACKEND is not None:
        return _ACTIVE_BACKEND
    backend = os.environ.get("REPRO_KERNEL_BACKEND", DEFAULT_BACKEND)
    if backend not in _KNOWN_BACKENDS:
        raise ValueError(
            f"REPRO_KERNEL_BACKEND={backend!r} is not a known backend; "
            f"expected one of {_KNOWN_BACKENDS}"
        )
    return backend


def set_backend(backend: Optional[str]) -> None:
    """Force a backend process-wide (``None`` re-enables env resolution)."""
    global _ACTIVE_BACKEND
    if backend is not None and backend not in _KNOWN_BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_KNOWN_BACKENDS}")
    _ACTIVE_BACKEND = backend


@contextmanager
def use_backend(backend: str):
    """Temporarily force a backend within a ``with`` block."""
    previous = _ACTIVE_BACKEND
    set_backend(backend)
    try:
        yield
    finally:
        set_backend(previous)


def num_threads() -> int:
    """Worker count for the threaded backend (``REPRO_KERNEL_THREADS``)."""
    value = os.environ.get("REPRO_KERNEL_THREADS")
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            raise ValueError(
                f"REPRO_KERNEL_THREADS must be an integer, got {value!r}"
            ) from None
    return max(1, min(4, os.cpu_count() or 1))


_EXECUTOR = None
_EXECUTOR_LOCK = threading.Lock()


def _shared_executor():
    """The process-wide thread pool for sharded kernels (created on first use).

    The worker count is captured at creation; changing
    ``REPRO_KERNEL_THREADS`` afterwards does not resize the pool.
    """
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            from concurrent.futures import ThreadPoolExecutor

            _EXECUTOR = ThreadPoolExecutor(
                max_workers=num_threads(), thread_name_prefix="repro-kernel"
            )
    return _EXECUTOR


def _sharded_futures(compute, num_rows: int):
    """Submit ``compute`` over row shards, or ``None`` when it cannot pay off.

    The shared partitioning behind :func:`run_sharded` and
    :func:`run_sharded_sum`: one shard per worker over the cached executor
    (no per-call pool construction), with a ``None`` fast path telling the
    caller to run ``compute(0, num_rows)`` directly.
    """
    workers = num_threads()
    if workers <= 1 or num_rows < 2 * workers:
        return None
    shard = (num_rows + workers - 1) // workers
    bounds = [(start, min(start + shard, num_rows)) for start in range(0, num_rows, shard)]
    executor = _shared_executor()
    return [executor.submit(compute, start, stop) for start, stop in bounds]


def run_sharded(compute, num_rows: int):
    """Run ``compute(start, stop)`` over row shards and concatenate in order.

    The shared helper behind every ``threaded`` backend: shards ``[0,
    num_rows)`` across the cached executor and falls back to one direct call
    when sharding cannot pay off.  ``compute`` must return the result rows
    for its half-open range.
    """
    futures = _sharded_futures(compute, num_rows)
    if futures is None:
        return compute(0, num_rows)
    return np.concatenate([future.result() for future in futures], axis=0)


def run_sharded_sum(compute, num_rows: int):
    """Shard ``compute(start, stop)`` over rows and *sum* the partial results.

    The reduction twin of :func:`run_sharded`, for kernels whose shards
    produce same-shaped partial aggregates instead of result rows (e.g. the
    per-class bit counts of ``train.bundle_counts``).  Only exact for
    associative accumulations — integer sums, not floats.
    """
    futures = _sharded_futures(compute, num_rows)
    if futures is None:
        return compute(0, num_rows)
    total = futures[0].result()
    for future in futures[1:]:
        total = total + future.result()
    return total


# --------------------------------------------------------------- dtype policy
def float_dtype() -> np.dtype:
    """The dtype used when floats are introduced (init, int->float casts)."""
    if _FLOAT_DTYPE is not None:
        return _FLOAT_DTYPE
    return _validate_float_dtype(os.environ.get("REPRO_FLOAT_DTYPE", "float32"))


def set_float_dtype(dtype) -> None:
    """Force the float policy dtype (``None`` re-enables env resolution)."""
    global _FLOAT_DTYPE
    _FLOAT_DTYPE = None if dtype is None else _validate_float_dtype(dtype)


@contextmanager
def use_float_dtype(dtype):
    """Temporarily force the float policy dtype within a ``with`` block."""
    previous = _FLOAT_DTYPE
    set_float_dtype(dtype)
    try:
        yield
    finally:
        set_float_dtype(previous)


def _validate_float_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if not np.issubdtype(resolved, np.floating):
        raise ValueError(f"float dtype policy requires a floating dtype, got {resolved}")
    return resolved


__all__ = [
    "DEFAULT_BACKEND",
    "active_backend",
    "available_backends",
    "float_dtype",
    "get_kernel",
    "list_kernels",
    "num_threads",
    "register_kernel",
    "run_sharded",
    "run_sharded_sum",
    "set_backend",
    "set_float_dtype",
    "use_backend",
    "use_float_dtype",
]
