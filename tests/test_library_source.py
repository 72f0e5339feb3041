"""Static checks on the library source."""

import ast
import importlib
from pathlib import Path

import christoffel

PACKAGE = Path(christoffel.__file__).resolve().parent


def test_no_assert_in_library():
    """``python -O`` strips asserts, so invariants raise named errors instead."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    offenders = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert offenders == []


def test_traced_functions_resolve():
    """Every function the benchmark tracer wraps is still an attribute of
    its ``christoffel.<layer>`` module; the tracer file is parsed, not run."""
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    missing = [f"{layer}.{func}" for layer, funcs in layers.items() for func in funcs
               if not callable(getattr(importlib.import_module(f"christoffel.{layer}"),
                                       func, None))]
    assert layers and missing == []
