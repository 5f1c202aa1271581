"""One verification mechanism: constructions return what they measured and
only reports judge it, so no module of the package asserts or raises
AssertionError."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "quasilab").glob("*.py"))


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_assertion_error(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and node.exc is not None and _raised_name(node) == "AssertionError")
    ]
    assert offending == [], f"{path.name} asserts or raises AssertionError at lines {offending}"
