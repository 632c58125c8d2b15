"""repro.serve — packed-inference serving layer.

The paper's deployment story is that a trained HDC model is nothing but a set
of binary class hypervectors, so inference reduces to XOR + popcount over
bit-packed words.  This subpackage turns that observation into an actual
serving stack:

* :mod:`repro.serve.engine` — :class:`PackedInferenceEngine` compiles a fitted
  :class:`~repro.classifiers.pipeline.HDCPipeline` into the packed
  representation once, precomputes the encoder's item-memory lookup tables,
  and answers predictions over the XOR+popcount path;
* :mod:`repro.serve.registry` — :class:`ModelRegistry` holds one compiled
  engine per model name, every one loaded before the server starts;
* :mod:`repro.serve.metrics` — per-model request counters and latency
  histograms;
* :mod:`repro.serve.server` — a stdlib-only JSON-over-HTTP front-end
  (``POST /v1/predict`` and friends) that scores every predict in one
  engine call, with tenant rate quotas as its one admission limit,
  deadlines and a SIGTERM drain that answers what it holds, in one process.

Serving throughput and latency are measured end to end by perfbench's
``serve-keepalive`` workload (``perfbench/README.md``).
"""

from repro.serve.engine import PackedInferenceEngine
from repro.serve.metrics import LatencyHistogram, MetricsRegistry, ModelMetrics
from repro.serve.registry import ModelRegistry
from repro.serve.server import ServeApp, create_server

__all__ = [
    "PackedInferenceEngine",
    "ModelRegistry",
    "MetricsRegistry",
    "ModelMetrics",
    "LatencyHistogram",
    "ServeApp",
    "create_server",
]
