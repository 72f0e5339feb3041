"""The examples in README.md run as they are written."""

import ast
import shlex
from pathlib import Path

import pytest

from christoffel.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_block(heading: str, language: str) -> str:
    """The first ``language`` block of the section under ``## heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split(f"```{language}\n", 1)[1].split("\n```", 1)[0]


COMMAND_LINES = [line for line in code_block("Command line", "sh").splitlines()
                 if line.startswith("christoffel ")]


@pytest.mark.parametrize("line", COMMAND_LINES,
                         ids=[" ".join(shlex.split(line, comments=True)[1:])
                              for line in COMMAND_LINES])
def test_command_line_example(capsys, line):
    """Each command exits 0; a one-token comment is its whole output."""
    argv = shlex.split(line, comments=True)
    comment = line.split(" # ", 1)[1].split() if " # " in line else []
    assert main(argv[1:]) == 0
    if len(comment) == 1:
        assert capsys.readouterr().out.strip() == comment[0]


def test_library_example():
    """Each expression of the block has the repr its comment gives, on its
    line or on the next."""
    source = code_block("Library example", "python")
    lines = source.splitlines() + [""]
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2] or lines[node.end_lineno]
        assert repr(value) == comment.lstrip("# ").strip()
        checked += 1
    assert checked == 3
