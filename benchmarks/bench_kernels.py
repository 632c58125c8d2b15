"""Kernel-layer benchmark: fused encode, packed predict, dtype-policy training.

The ``repro.kernels`` refactor hoisted the packed/fused hot-path kernels out
of the serving engine into a shared compute layer that training, evaluation
and serving all ride.  This benchmark measures each moved kernel against the
implementation the seed repository shipped, writes the raw numbers as JSON
under ``benchmarks/results/``, and asserts the acceptance criteria:

* packed batch ``predict`` >= 5x the dense int64 dot rule at D=4000
  (the packed side pays for its own bit-packing, so this is end-to-end);
* fused ``RecordEncoder.encode`` >= 2x the seed per-feature loop.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.conftest import RESULTS_DIR, print_report
from repro.kernels.bench import format_report, run_kernel_benchmark

#: Acceptance thresholds from the kernels issue.
MIN_PACKED_PREDICT_SPEEDUP = 5.0
MIN_FUSED_ENCODE_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def kernel_result():
    return run_kernel_benchmark(
        dimension=4000,
        num_features=64,
        num_levels=32,
        num_classes=10,
        num_samples=512,
        seed=0,
    )


def test_kernel_benchmark_report(kernel_result):
    """Print the per-kernel speedup table and persist the JSON results."""
    config = kernel_result["config"]
    print_report(
        f"Kernel layer benchmark (D={config['dimension']})",
        format_report(kernel_result),
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "bench_kernels.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(kernel_result, handle, indent=2)


def test_packed_predict_speedup(kernel_result):
    """Packed batch predict >= 5x the dense dot-similarity rule at D=4000."""
    speedup = kernel_result["predict"]["speedup"]
    assert speedup >= MIN_PACKED_PREDICT_SPEEDUP, (
        f"packed predict speedup {speedup:.1f}x is below the "
        f"{MIN_PACKED_PREDICT_SPEEDUP:.0f}x acceptance threshold"
    )


def test_fused_encode_speedup(kernel_result):
    """Grouped-GEMM encode >= 2x the seed RecordEncoder per-feature loop."""
    speedup = kernel_result["encode"]["speedup"]
    assert speedup >= MIN_FUSED_ENCODE_SPEEDUP, (
        f"fused encode speedup {speedup:.1f}x is below the "
        f"{MIN_FUSED_ENCODE_SPEEDUP:.0f}x acceptance threshold"
    )


def test_vectorised_ngram_not_slower(kernel_result):
    """The rolled-window n-gram kernel must not regress the seed loop."""
    assert kernel_result["encode_ngram"]["speedup"] >= 1.0
