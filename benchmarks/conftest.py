"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
(one ``bench_*.py`` module each).  The runs are scaled down so the whole
harness finishes in minutes on a laptop CPU; the knobs below can be raised via
environment variables to approach paper scale:

=============================  =======================================  =========
environment variable           meaning                                  default
=============================  =======================================  =========
``REPRO_BENCH_PROFILE``        dataset profile (tiny / small / full)    small
``REPRO_BENCH_DIMENSION``      hypervector dimension ``D``              4000
``REPRO_BENCH_REPETITIONS``    repetitions for mean±std aggregation     2
``REPRO_BENCH_LEHDC_EPOCHS``   LeHDC training epochs                    30
``REPRO_BENCH_RETRAIN_ITERS``  retraining iterations                    30
=============================  =======================================  =========
"""

from __future__ import annotations

import os

import pytest


def _int_env(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


BENCH_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "small")
BENCH_DIMENSION = _int_env("REPRO_BENCH_DIMENSION", 4000)
BENCH_REPETITIONS = _int_env("REPRO_BENCH_REPETITIONS", 2)
BENCH_LEHDC_EPOCHS = _int_env("REPRO_BENCH_LEHDC_EPOCHS", 30)
BENCH_RETRAIN_ITERS = _int_env("REPRO_BENCH_RETRAIN_ITERS", 30)


@pytest.fixture(scope="session")
def bench_settings():
    """The harness-wide benchmark settings as a dictionary."""
    return {
        "profile": BENCH_PROFILE,
        "dimension": BENCH_DIMENSION,
        "repetitions": BENCH_REPETITIONS,
        "lehdc_epochs": BENCH_LEHDC_EPOCHS,
        "retraining_iterations": BENCH_RETRAIN_ITERS,
    }


#: Directory where every report block is also written as a text file, so the
#: tables/figures survive pytest's output capture.
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _slugify(title: str) -> str:
    keep = [c.lower() if c.isalnum() else "_" for c in title]
    slug = "".join(keep)
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")[:80]


def print_report(title: str, body: str) -> None:
    """Print a benchmark report block and persist it under ``benchmarks/results/``."""
    banner = "=" * max(len(title), 20)
    block = f"{banner}\n{title}\n{banner}\n{body}\n"
    print("\n" + block, flush=True)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, _slugify(title) + ".txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(block)
