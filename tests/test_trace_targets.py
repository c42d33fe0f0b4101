"""The benchmark's trace targets name functions the package still has.

``perfbench/tracing.py`` wraps every function its ``TARGETS`` table names;
a target the package no longer has drops its layer from the benchmark's
per-layer numbers.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_exists_in_the_package(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [
        f"{module}.{name}"
        for module, name, *_ in tracing.TARGETS
        if not callable(getattr(importlib.import_module(f"hwp4m.{module}"), name, None))
    ]
    assert missing == []
