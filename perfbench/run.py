"""LeHDC benchmark: one command for every workload's metrics and output checks.

    python3 perfbench/run.py --workload train-lehdc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric from a traced run.  See
``perfbench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("train-lehdc", "offline-batch", "serve-keepalive")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # One BLAS thread: on a 2-vCPU VM measuring about one core of effective
    # parallelism, two threads made LeHDC fit times spread 25% against 9%
    # with one.  Set before NumPy loads; the server subprocess inherits it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    from ledger import layers, workloads

    workdir = WORKDIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        workloads.clean(workdir)

    units = layers.PER_LAYER_METRICS if args.trace else workloads.END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for line in outcome.lines:
        print(line)
    for phase, counts in outcome.phases.items():
        print(f"phase {phase}: {counts.describe()}")
    for name, ok, detail in outcome.checks:
        print(f"check [{'ok' if ok else 'FAILED'}] {name}: {detail}")
    for name, value in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {units[name][0]}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name][0]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
