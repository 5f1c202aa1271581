"""One verification mechanism: constructions return what they measured and
only reports judge it, so no module of the package asserts or raises
AssertionError, and every verdict is built by one of the two verdict rules
(``CheckResult.at_most``, ``CheckResult.above``)."""

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


def _is_check_result_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "CheckResult") or (
        isinstance(func, ast.Attribute) and func.attr == "CheckResult"
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_hand_built_verdicts(path):
    # parse_report rebuilds checks whose verdicts were already judged
    tree = ast.parse(path.read_text(), filename=str(path))
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and path.name == "reporting.py" and fn.name == "parse_report"
        for node in ast.walk(fn)
    }
    offending = [node.lineno for node in ast.walk(tree) if _is_check_result_call(node) and id(node) not in exempt]
    assert offending == [], f"{path.name} calls CheckResult(...) directly at lines {offending}"
