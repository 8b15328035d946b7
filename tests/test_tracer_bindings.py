"""The benchmark's tracer patches module attributes by name; each must exist,
and each import kept only for it must be one of them."""

import ast
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


SRC = TRACING.parents[1] / "src" / "lethargy"


def tracer_only_imports():
    """(module, name) for every import in src/lethargy marked noqa: F401,
    the imports no code there uses and that exist for the tracer to patch."""
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])):
                for alias in node.names:
                    yield f"lethargy.{path.stem}", alias.asname or alias.name


@pytest.mark.parametrize("mod, attr", tracer_only_imports())
def test_tracer_only_import_is_a_binding(mod, attr):
    # an unused import kept for a binding the tracer has dropped fails here
    bound = {(m, a) for m, a, _ in tracer_bindings()}
    assert (mod, attr) in bound, f"{mod} imports {attr} for the tracer, which no longer patches it"
