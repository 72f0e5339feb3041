"""Static checks on the library source."""

import ast
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
