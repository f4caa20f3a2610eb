"""The names `perfbench/layertrace.py` wraps still exist in the package.

The tracer replaces names in the package's module globals; a refactor that
drops one breaks traced benchmark runs, which only `pytest perfbench`
would otherwise show.
"""

from __future__ import annotations

import importlib

from conftest import REPO_ROOT


def test_every_patched_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    trace = importlib.import_module("layertrace")
    missing = [f"{module}.{name}"
               for module, names in trace.PATCHES.items()
               for name in names
               if not callable(getattr(importlib.import_module(module),
                                       name, None))]
    assert missing == []
    # each wrapper's span name must have a layer for the per-layer sums
    assert {name for names in trace.PATCHES.values() for name in names} \
        <= trace.LAYER_OF.keys()
