"""Every module of the package imports, and every name it exports resolves.

A deleted module or function must not leave a stale import behind in a
module no other test happens to load, nor a stale ``__all__`` entry:
``from module import *`` fails on the first name that is gone.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil

import pytest

import repro

MODULES = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, "repro."))


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports_and_its_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []


#: Modules deleted with their feature, as dotted-name parts: perfbench is the
#: one load client and ``GET /metrics`` the one metrics surface, so the load
#: generator, its console and the JSON route's quantile sketch stay gone.
RETIRED_MODULES = [("repro", "loadgen"), ("repro", "obs", "console"), ("repro", "obs", "sketch")]


@pytest.mark.parametrize("parts", RETIRED_MODULES, ids=".".join)
def test_retired_module_is_gone(parts):
    module_name = ".".join(parts)
    assert module_name not in MODULES
    assert importlib.util.find_spec(module_name) is None


def test_obs_exports_tracing_exposition_and_trace_summary_only():
    import repro.obs

    assert sorted(repro.obs.__all__) == [
        "CONTENT_TYPE",
        "JsonlSink",
        "MemorySink",
        "Span",
        "Tracer",
        "format_trace_summary",
        "parse_trace_file",
        "render_prometheus",
        "slowest_exemplars",
        "summarize_spans",
        "summarize_trace_file",
        "validate_exposition",
    ]
