"""Host fingerprint recorded with every run.

Numbers from different hosts must never be compared blind: this records the
CPU budget the process really has (``nproc``, affinity mask, *measured*
effective parallelism), the CPU model, and the Python / NumPy / OpenBLAS
versions with the BLAS thread count in effect.
"""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
from typing import Optional

#: Pure-Python spin loop timed inside each probe process; prints its seconds.
_SPIN = (
    "import sys, time\n"
    "n = int(sys.argv[1]); t = time.perf_counter(); x = 0\n"
    "for i in range(n): x += i\n"
    "print(time.perf_counter() - t)\n"
)
_SPIN_ITERATIONS = 4_000_000


def _spin(count: int) -> float:
    """Run *count* spin processes at once; the slowest one's loop seconds."""
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _SPIN, str(_SPIN_ITERATIONS)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(count)
    ]
    seconds = []
    for proc in procs:
        out, _ = proc.communicate(timeout=60)
        seconds.append(float(out.strip()))
    return max(seconds)


def effective_parallelism() -> float:
    """Work two processes finish per unit time, relative to one process alone."""
    single = _spin(1)
    pair = _spin(2)
    return 2.0 * single / pair


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    """OpenBLAS version from NumPy's build config and the live thread count."""
    import numpy as np

    info = {"blas": "unknown", "blas_version": "unknown", "blas_threads": None}
    config = getattr(getattr(np, "__config__", None), "CONFIG", None)
    if isinstance(config, dict):
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = blas.get("name", "unknown")
        info["blas_version"] = blas.get("version", "unknown")
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads() -> Optional[int]:
    """Ask the OpenBLAS library NumPy loaded how many threads it uses.

    SciPy may map a second OpenBLAS; NumPy's sits under ``numpy.libs``.
    """
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) >= 6 and "openblas" in fields[-1]:
                    paths.append(fields[-1])
    except OSError:
        return None
    if not paths:
        return None
    path = next((p for p in paths if "numpy" in p), paths[0])
    library = ctypes.CDLL(path)
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        function = getattr(library, symbol, None)
        if function is not None:
            function.restype = ctypes.c_int
            return int(function())
    return None


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of *pid* (default: this process), in MB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


def fingerprint() -> dict:
    import numpy as np

    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": cpu_model(),
        "effective_parallelism": effective_parallelism(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
    }
