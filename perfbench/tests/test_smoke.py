"""Each workload end to end at its smallest size, untraced and traced."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import layers, workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smallest_size_runs_correct_and_reports_every_metric(name, trace, tmp_path):
    outcome = workloads.run(
        name, seed=3, seconds=0.5, trace=trace, workdir=tmp_path,
        size=workloads.SMOKE_SIZES[name],
    )
    assert outcome.correct, (outcome.checks, outcome.phases)
    assert outcome.phases["measure"].attempted >= 1
    expected = layers.PER_LAYER_METRICS if trace else workloads.END_TO_END
    assert set(outcome.metrics) == set(expected)
    assert all(math.isfinite(value) for value in outcome.metrics.values())
    if not trace:
        assert all(value > 0 for value in outcome.metrics.values())


def test_benchmark_json_matches_the_metrics_the_code_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        workloads.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        layers.PER_LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "offline-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
