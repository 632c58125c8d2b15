"""Every module of the package imports, and every name it exports resolves.

A deleted module or function must not leave a stale import behind in a
module no other test happens to load, nor a stale ``__all__`` entry:
``from module import *`` fails on the first name that is gone.
"""

from __future__ import annotations

import importlib
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
