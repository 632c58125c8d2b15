"""Cluster scaling: throughput vs ``--workers {1,2,4}``.

The multiprocess tier exists to beat the GIL on multi-core hosts, but its
*correctness* contract — merged scores bit-identical to the single-process
engine, including the ensemble max-over-bank reduction — must hold on any
machine.  So this harness always asserts parity, and gates the scaling
assertions on the host actually having more than one core: single-core CI
still runs everything and records honest numbers (annotated as dispatch
overhead), it just skips the throughput comparisons, which would only
measure fork + pipe overhead there.
"""

from __future__ import annotations

import os

import pytest

from benchmarks.conftest import print_report
from repro.cluster.bench import format_scaling_rows, run_cluster_scaling_benchmark
from repro.eval.tables import format_table

#: On a multi-core host the sharded cluster must not fall off a cliff vs the
#: single process (shared CI runners make aggressive speedup floors flaky;
#: regressions in the dispatch path still trip this).
MIN_MULTICORE_RELATIVE_RATE = 0.8

#: With two workers pinned to distinct CPUs the cluster must actually scale
#: — the whole point of the worker pool (only asserted when two CPUs exist
#: to pin to).
MIN_PINNED_TWO_WORKER_SPEEDUP = 1.5

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def scaling_result():
    return run_cluster_scaling_benchmark(
        dimension=4000,
        num_features=64,
        num_classes=10,
        num_samples=256,
        batch_size=64,
        worker_counts=WORKER_COUNTS,
        cpu_affinity="auto",
        seed=0,
    )


def test_cluster_scaling_report(scaling_result):
    """Print and persist the throughput table (cpu count + pin map recorded)."""
    config = scaling_result["config"]
    body = format_table(
        ["mode", "samples/s", "vs single-process", "merged scores"],
        format_scaling_rows(scaling_result),
    )
    body += f"\nhost cpu count: {scaling_result['cpu_count']}"
    body += f"\navailable cpus: {scaling_result['available_cpus']}"
    pinned = {
        key: pins
        for key, pins in scaling_result["pin_maps"].items()
        if pins is not None
    }
    body += f"\npin maps (worker -> cpu): {pinned if pinned else 'not applied'}"
    if scaling_result["scaling_note"]:
        body += f"\nnote: {scaling_result['scaling_note']}"
    print_report(
        (
            f"Cluster scaling (D={config['dimension']}, "
            f"batch={config['batch_size']}, K={config['num_classes']})"
        ),
        body,
    )


def test_merged_scores_are_bit_identical(scaling_result):
    """Parity holds for every worker count + the ensemble merge."""
    parity = scaling_result["parity"]
    for count in WORKER_COUNTS:
        key = f"workers-{count}"
        assert parity[key], f"score mismatch for {key}"
    assert parity["ensemble:workers-2"], "ensemble max-over-bank merge mismatch"


def test_multicore_scaling(scaling_result):
    """On multi-core hosts the cluster must hold its own against one process."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("single-core host: cluster scaling is not expected to pay off")
    best = max(scaling_result["rates"][f"workers-{count}"] for count in WORKER_COUNTS)
    floor = MIN_MULTICORE_RELATIVE_RATE * scaling_result["rates"]["single-process"]
    assert best >= floor, (
        f"best cluster rate {best:.0f}/s fell below "
        f"{MIN_MULTICORE_RELATIVE_RATE:.0%} of the single-process rate"
    )


def test_two_pinned_workers_speed_up(scaling_result):
    """With ≥2 CPUs, two pinned workers must clear 1.5x single-process."""
    if scaling_result["cpu_count"] < 2:
        pytest.skip(
            "single-CPU host: pinning cannot create parallelism "
            f"(recorded honestly: {scaling_result['scaling_note']})"
        )
    best = scaling_result["speedups"]["workers-2"]
    assert best >= MIN_PINNED_TWO_WORKER_SPEEDUP, (
        f"best 2-pinned-worker speedup {best:.2f}x fell below "
        f"{MIN_PINNED_TWO_WORKER_SPEEDUP}x despite {scaling_result['cpu_count']} CPUs"
    )
