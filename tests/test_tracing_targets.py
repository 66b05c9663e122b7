"""The benchmark's tracer wraps functions of the package by name: each one must exist.

``bench/tracing.py`` lists its targets as (module, function, span name);
a name deleted from the package would otherwise surface only when the
benchmark runs traced.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, function, span", _targets())
def test_every_traced_function_resolves(module, function, span):
    assert callable(getattr(importlib.import_module(f"gfourier.{module}"), function, None)), span
