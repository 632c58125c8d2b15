"""Serving throughput benchmark shared by the CLI and the benchmark harness.

Measures the four corners of the serving design space on one trained model —
{single-sample, micro-batched} × {dense pipeline, packed engine} — plus the
concurrent :class:`~repro.serve.batching.BatchScheduler` path that the HTTP
server actually runs.  The headline number the ISSUE acceptance criteria care
about is ``batched-packed / single-dense``: micro-batched packed inference
must beat naive per-request dense serving by a wide margin.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

from repro.classifiers.baseline import BaselineHDC
from repro.classifiers.pipeline import HDCPipeline
from repro.datasets.synthetic import make_gaussian_classes
from repro.hdc.encoders import RecordEncoder
from repro.serve.batching import BatchScheduler
from repro.serve.engine import PackedInferenceEngine
from repro.serve.metrics import ModelMetrics


def _throughput(run, num_samples: int, repeats: int = 3) -> float:
    """Best-of-*repeats* samples/second for callable *run* (one full pass)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return num_samples / best if best > 0 else float("inf")


def run_serving_benchmark(
    dimension: int = 4000,
    num_features: int = 64,
    num_classes: int = 10,
    num_samples: int = 256,
    batch_size: int = 64,
    concurrency: int = 8,
    seed: int = 0,
    include_scheduler: bool = True,
) -> Dict[str, object]:
    """Train a small model and measure serving throughput across modes.

    Returns a dictionary with the per-mode samples/second (``rates``), the
    speedups relative to single-sample dense serving (``speedups``), the
    scheduler's observed batch-size distribution, and the model/bench
    configuration — ready for table formatting or JSON dumping.
    """
    train_features, train_labels, test_features, _ = make_gaussian_classes(
        num_classes=num_classes,
        num_features=num_features,
        train_size=max(40 * num_classes, 200),
        test_size=num_samples,
        class_sep=2.5,
        seed=seed,
    )
    encoder = RecordEncoder(
        dimension=dimension, num_levels=16, tie_break="positive", seed=seed
    )
    pipeline = HDCPipeline(encoder, BaselineHDC(seed=seed))
    pipeline.fit(train_features, train_labels)
    engine = PackedInferenceEngine(pipeline, name="bench")
    engine.warmup()

    # The "dense" rows are the *naive deployment* baseline the speedups are
    # measured against: per-request dense scoring over an encoder held in its
    # factored (unfused, seed-equivalent per-feature loop) form.  Since the
    # kernel-layer refactor the default HDCPipeline is packed-native and rides
    # the same fused kernels as the engine, so benchmarking it would compare
    # the engine against itself; a twin encoder (same seed → identical item
    # memories and predictions) with the LUT budget at zero preserves the
    # original baseline semantics.
    dense_encoder = RecordEncoder(
        dimension=dimension, num_levels=16, tie_break="positive", seed=seed
    )
    dense_encoder.fit(train_features)
    dense_encoder.lut_budget_bytes = 0  # keep the factored per-feature form
    dense_pipeline = HDCPipeline(
        dense_encoder, pipeline.classifier, prefer_packed=False
    )
    dense_pipeline._fitted = True

    queries = test_features[:num_samples]

    def single_dense():
        for row in queries:
            dense_pipeline.predict(row)

    def single_packed():
        for row in queries:
            engine.predict(row)

    def batched_dense():
        for start in range(0, num_samples, batch_size):
            dense_pipeline.predict(queries[start : start + batch_size])

    def batched_packed():
        for start in range(0, num_samples, batch_size):
            engine.predict(queries[start : start + batch_size])

    rates: Dict[str, float] = {
        "single-dense": _throughput(single_dense, num_samples),
        "single-packed": _throughput(single_packed, num_samples),
        "batched-dense": _throughput(batched_dense, num_samples),
        "batched-packed": _throughput(batched_packed, num_samples),
    }

    batch_distribution: Dict[int, int] = {}
    if include_scheduler:
        metrics = ModelMetrics()
        with BatchScheduler(
            engine, max_batch_size=batch_size, metrics=metrics
        ) as scheduler:

            def scheduler_run():
                with ThreadPoolExecutor(max_workers=concurrency) as pool:
                    futures = [
                        pool.submit(scheduler.predict, row) for row in queries
                    ]
                    for future in futures:
                        future.result()

            rates["scheduler-packed"] = _throughput(
                scheduler_run, num_samples, repeats=1
            )
            batch_distribution = metrics.batch_size_distribution

    baseline_rate = rates["single-dense"]
    speedups = {mode: rate / baseline_rate for mode, rate in rates.items()}
    return {
        "config": {
            "dimension": dimension,
            "num_features": num_features,
            "num_classes": num_classes,
            "num_samples": num_samples,
            "batch_size": batch_size,
            "concurrency": concurrency,
        },
        "rates": rates,
        "speedups": speedups,
        "batch_size_distribution": batch_distribution,
    }


def format_benchmark_rows(result: Dict[str, object]) -> List[List[str]]:
    """Rows ``[mode, samples/s, speedup]`` for ``repro.eval.tables.format_table``."""
    rates: Dict[str, float] = result["rates"]  # type: ignore[assignment]
    speedups: Dict[str, float] = result["speedups"]  # type: ignore[assignment]
    return [
        [mode, f"{rates[mode]:.0f}", f"{speedups[mode]:.1f}x"]
        for mode in rates
    ]


__all__ = ["run_serving_benchmark", "format_benchmark_rows"]
