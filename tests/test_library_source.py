"""Static checks on the library source."""

import ast
import importlib
from pathlib import Path

import christoffel

PACKAGE = Path(christoffel.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# The exported names that no library module calls and the benchmark does
# not pin, each with the reason it stays public.  README.md mirrors this
# table under "Public names no command calls".
KEPT_WITH_REASON = {
    "consecutive_rows_square": "the consecutive-rows lemma: the column where rows i-1 and i "
                               "of M(n, a, b, r) differ",
    "cyclic_restriction": "the restriction of a circular two-interval exchange to [k], "
                          "a three-interval exchange",
    "from_triple": "the inverse of the isomorphism `to_triple`",
    "group_identity": "the identity of the group, M(n, 0, 1, 1)",
    "special_factor_determinant": "the determinant of the factors of length n without the "
                                  "right-special one, in closed form",
    "stern_brocot_nodes": "the Stern-Brocot nodes from 1/1 down to a slope",
    "stern_brocot_path": "the left/right path of a slope in the Stern-Brocot tree",
    "vector_merge_step": "V_{n+1} -> V_n at the palindromic factorization, up to sign",
}


def _modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    return modules


def _names_read(tree) -> set[str]:
    """The plain names a tree reads, with those in string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for leaf in ast.walk(annotation) if annotation else ():
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    names |= _names_read(ast.parse(leaf.value, mode="eval"))
    return names


def _library_references() -> set[str]:
    """Every name or attribute that a module of the package other than
    ``__init__.py`` reads outside the definition of that name."""
    used = set()
    for path in _modules():
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _names_read(stmt) | {node.attr for node in ast.walk(stmt)
                                         if isinstance(node, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)
            used |= names
    return used


def _tracer_layers() -> dict:
    """``LAYERS`` of ``perfbench/tracer.py``, parsed, not run."""
    tracer = ROOT / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(), filename=str(tracer))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))


def _benchmark_pins() -> set[str]:
    """The functions the tracer wraps and every ``C.<name>`` a workload calls."""
    workloads = ROOT / "perfbench" / "workloads.py"
    tree = ast.parse(workloads.read_text(), filename=str(workloads))
    called = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id == "C"}
    return called | {func for funcs in _tracer_layers().values() for func in funcs}


def test_no_assert_in_library():
    """``python -O`` strips asserts, so invariants raise named errors instead."""
    offenders = []
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                offenders.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    offenders.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert offenders == []


def test_no_unused_import_in_library():
    """Every name a module imports is read in it, in code or an annotation."""
    offenders = []
    for path in _modules():
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offenders += [f"{path.name}:{node.lineno} {bound}" for bound in
                              (alias.asname or alias.name.split(".")[0] for alias in node.names)
                              if bound not in used]
    assert offenders == []


def test_every_public_name_has_a_caller_a_pin_or_a_reason():
    """Each name of ``__all__`` is read by a library module, pinned by the
    benchmark, or kept with its reason; no kept entry has become one of
    the first two or left ``__all__``."""
    callerless = set(christoffel.__all__) - _library_references() - _benchmark_pins()
    assert sorted(callerless - set(KEPT_WITH_REASON)) == []
    assert sorted(set(KEPT_WITH_REASON) - callerless) == []


def test_readme_mirrors_the_kept_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n### Public names no command calls\n", 1)[1].split("\n#", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    assert {name.strip("| `"): reason.rstrip(" |") for name, reason in rows} == \
        KEPT_WITH_REASON


def test_traced_functions_resolve():
    """Every function the benchmark tracer wraps is still an attribute of
    its ``christoffel.<layer>`` module; the tracer file is parsed, not run."""
    layers = _tracer_layers()
    missing = [f"{layer}.{func}" for layer, funcs in layers.items() for func in funcs
               if not callable(getattr(importlib.import_module(f"christoffel.{layer}"),
                                       func, None))]
    assert layers and missing == []
