"""LeHDC performance ledger: workloads, tracing and reporting for ``perfbench/run.py``.

The package imports nothing from ``repro`` at module level, so the pure
helpers (statistics, span analysis, failure accounting) load and test
without the program under measurement.
"""
