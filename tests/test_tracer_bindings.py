"""The benchmark's tracer patches module attributes by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_bindings():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("mod, attr, span", tracer_bindings())
def test_tracer_binding_exists(mod, attr, span):
    # a renamed function fails here, not only under bench/run.py --trace 1
    assert hasattr(importlib.import_module(mod), attr), f"{span}: {mod}.{attr} is gone"
