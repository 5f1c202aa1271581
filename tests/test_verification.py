"""One verification mechanism: constructions return what they measured and
only reports judge it, so no module of the package asserts or raises
AssertionError, every verdict is built by one of the two verdict rules
(``CheckResult.at_most``, ``CheckResult.above``), and every validator is
written as its passing comparison, so NaN and infinities fail it, and
rejects through the one rule ``operators.require``, which alone picks the
failing instance. One
assembler per report: only ``cli.main`` and ``acceptance.as_report`` build
a ``RunReport``, and only ``acceptance.run_all`` numbers and names the
criteria. One judge per claim: the CLI and ``verify-all`` take the CHSH
law from ``nonlocal_box``, read detection from ``discrimination_experiment``
and ``probe_experiment``, and leave the reduction of a check's instances to
``CheckResult``. One name per operation: no public function is a ``*_batch``
twin or a wrapper of a stack of one. One shape rule: every operation
broadcasts over leading axes, so no module lifts one instance to a stack
of one, and only ``operators`` picks results apart and handles the
stack-innermost layout. One draw rule: every
criterion draws in bulk."""

import ast
from pathlib import Path

import numpy as np
import pytest

from quasilab import highdim, nonlocal_box

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


def _is_call_of(node: ast.AST, name: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == name) or (isinstance(func, ast.Attribute) and func.attr == name)


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
    offending = [node.lineno for node in ast.walk(tree) if _is_call_of(node, "CheckResult") and id(node) not in exempt]
    assert offending == [], f"{path.name} calls CheckResult(...) directly at lines {offending}"


# (module, top-level function) where each report frame may be built; None
# stands for anywhere in the module. The CLI handlers and the criteria
# return their checks, and these few places number, name, echo and time them.
ASSEMBLERS = {
    "RunReport": {("cli.py", "main"), ("acceptance.py", "as_report"), ("reporting.py", None)},
    "Criterion": {("acceptance.py", "run_all")},
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
@pytest.mark.parametrize("frame", sorted(ASSEMBLERS))
def test_reports_are_assembled_in_one_place(path, frame):
    allowed = ASSEMBLERS[frame]
    offending = [
        node.lineno
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if (path.name, None) not in allowed and (path.name, getattr(top, "name", None)) not in allowed
        for node in ast.walk(top)
        if _is_call_of(node, frame)
    ]
    assert offending == [], f"{path.name} builds {frame}(...) at lines {offending}"


NAN3 = np.array([np.nan, 0.0, 0.0])

# Each builds a value from a NaN or infinite input, which its validator must
# reject rather than pass on.
NON_FINITE_INPUTS = {
    "chsh_settings_for-nan": lambda: nonlocal_box.chsh_settings_for(np.nan),
    "chsh_settings_for-inf": lambda: nonlocal_box.chsh_settings_for(np.inf),
    "chsh_settings-nan": lambda: nonlocal_box.ChshSettings(NAN3, NAN3, NAN3, NAN3),
    "joint_distribution-nan": lambda: nonlocal_box.JointDistribution(np.full((2, 2), np.nan), np.True_),
    "joint_distribution-inf": lambda: nonlocal_box.JointDistribution(
        np.array([[np.inf, -np.inf], [1.0, 0.0]]), np.True_
    ),
    "probe_magnitudes-nan": lambda: highdim.probe_magnitudes(3, np.nan, highdim.CERTAIN),
    "probe_magnitudes-inf": lambda: highdim.probe_magnitudes(3, np.inf, highdim.CERTAIN),
    "probe_phases-nan": lambda: highdim.build_probe_state(
        highdim.build_violating_state(3, 0.5), highdim.CERTAIN, phases=[np.nan, 0.0, 0.0]
    ),
    "probe_phases-inf": lambda: highdim.build_probe_state(
        highdim.build_violating_state(3, 0.5), highdim.NULL, phases=[0.0, -np.inf, 0.0]
    ),
}


@pytest.mark.parametrize("build", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys())
def test_non_finite_input_is_rejected(build):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        build()


def _public_functions(tree: ast.Module) -> list[ast.FunctionDef]:
    return [node for node in tree.body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


PUBLIC = {fn.name for path in SOURCES for fn in _public_functions(ast.parse(path.read_text()))}


def _wraps_a_stack_of_one(fn: ast.FunctionDef) -> bool:
    """True when the body, past its docstring, is one ``return`` that takes
    instance 0 of what a public function returns (``return f(...)[0]``,
    also inside a conversion such as ``float(f(...)[0])``)."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
        return False
    return any(
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id in PUBLIC
        for node in ast.walk(body[0].value)
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_public_name_per_operation(path):
    # the shape of an operation's input chooses one instance or a stack, so
    # no operation has a second name for stacks or a wrapper for one instance
    functions = _public_functions(ast.parse(path.read_text(), filename=str(path)))
    twins = [fn.name for fn in functions if fn.name.endswith("_batch")]
    wrappers = [fn.name for fn in functions if _wraps_a_stack_of_one(fn)]
    assert twins == [], f"{path.name} defines stack twins {twins}"
    assert wrappers == [], f"{path.name} wraps a stack of one in {wrappers}"


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a module defines, imports, reads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_layer_lifts_or_picks_its_own_instances(path):
    # one instance is computed by broadcasting and leaves through
    # operators.as_number, never as a stack of one picked back out
    names = _identifiers(ast.parse(path.read_text(), filename=str(path)))
    lifts = sorted(names & {"as_stack", "_first", "_whole"})
    assert lifts == [], f"{path.name} names the stack-of-one lift {lifts}"
    assert path.name == "operators.py" or "_pick" not in names, f"{path.name} picks results apart itself"


def _picks_an_instance(node: ast.AST) -> bool:
    return _is_call_of(node, "argmin") or _is_call_of(node, "argmax") or (
        isinstance(node, ast.Attribute) and node.attr == "flat"
    )


# (module, top-level function) where an instance may be picked: require
# picks the first failing one.
PICKERS = {("operators.py", "require")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_rejection_rule(path):
    # a bad instance is named by operators.require, never by a pick of a
    # layer's own
    tree = ast.parse(path.read_text(), filename=str(path))
    retired = sorted(_identifiers(tree) & {"_all", "_first_non_finite_row"})
    assert retired == [], f"{path.name} names the retired row checks {retired}"
    picks = [
        node.lineno
        for top in tree.body
        if (path.name, getattr(top, "name", None)) not in PICKERS
        for node in ast.walk(top)
        if _picks_an_instance(node)
    ]
    assert picks == [], f"{path.name} picks a failing instance at lines {picks}"


def _handles_the_layout(node: ast.AST) -> bool:
    if _is_call_of(node, "ascontiguousarray"):
        return True
    return _is_call_of(node, "swapaxes") and [getattr(arg, "value", None) for arg in node.args] == [0, 1]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_owner_of_the_stack_major_layout(path):
    # the stack-innermost layout, its copy and its transposes are operators'
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = [node.lineno for node in ast.walk(tree) if _handles_the_layout(node)]
    assert path.name == "operators.py" or calls == [], f"{path.name} handles the stack-major layout at lines {calls}"


JUDGES = [path for path in SOURCES if path.name in ("cli.py", "acceptance.py")]


def _measured_argument(call: ast.Call) -> ast.AST | None:
    if len(call.args) > 1:
        return call.args[1]
    return next((keyword.value for keyword in call.keywords if keyword.arg == "measured"), None)


@pytest.mark.parametrize("path", JUDGES, ids=lambda p: p.name)
def test_one_judge_per_claim(path):
    # the settings of a CHSH experiment and the law's value for them come
    # from nonlocal_box.chsh_experiment, and only CheckResult reduces a
    # check's per-instance values to the worst one
    tree = ast.parse(path.read_text(), filename=str(path))
    names = _identifiers(tree)
    assert "SQRT2" not in names, f"{path.name} works out the CHSH law itself"
    choosers = sorted(names & {"chsh_settings_for", "TSIRELSON_SETTINGS", "_axis_vectors", "_resolve_settings"})
    assert choosers == [], f"{path.name} picks the CHSH settings or grid itself with {choosers}"
    box_module = next(p for p in SOURCES if p.name == "nonlocal_box.py")
    box_names = _identifiers(ast.parse(box_module.read_text()))
    assert "chsh_law" not in box_names, "nonlocal_box keeps chsh_law beside chsh_experiment"
    reductions = [
        node.lineno
        for node in ast.walk(tree)
        if (_is_call_of(node, "at_most") or _is_call_of(node, "above"))
        and (measured := _measured_argument(node)) is not None
        and any(_is_call_of(sub, "max") or _is_call_of(sub, "min") for sub in ast.walk(measured))
    ]
    assert reductions == [], f"{path.name} reduces a check's instances itself at lines {reductions}"


# what discrimination_experiment and probe_experiment do for their callers
MEASUREMENTS = ("discriminate", "detection_probabilities", "build_probe_state", "detection_probability")
TARGETS = {"CERTAIN", "NULL"}


@pytest.mark.parametrize("path", JUDGES, ids=lambda p: p.name)
def test_detection_is_read_from_the_experiments(path):
    # the hidden labels and the probe targets are laid out, measured and
    # judged by discrimination_experiment and probe_experiment alone
    tree = ast.parse(path.read_text(), filename=str(path))
    measured = sorted({name for node in ast.walk(tree) for name in MEASUREMENTS if _is_call_of(node, name)})
    assert measured == [], f"{path.name} measures detection itself with {measured}"
    assert "detection_deviation" not in _identifiers(tree), f"{path.name} judges detection itself"
    both_targets = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Tuple, ast.List)) and {getattr(e, "id", None) for e in node.elts} == TARGETS
    ]
    assert both_targets == [], f"{path.name} lays out both probe targets at lines {both_targets}"
    module = next(p for p in SOURCES if p.name == "discrimination.py")
    assert "detection_deviation" not in _identifiers(ast.parse(module.read_text())), "detection_deviation is back"


def test_no_unused_random_direction():
    # scale_directions makes the draws; the tests keep their own reference
    bloch = next(path for path in SOURCES if path.name == "bloch.py")
    assert "random_direction" not in _identifiers(ast.parse(bloch.read_text(), filename=str(bloch)))


def _generator_calls(node: ast.AST) -> list[int]:
    """Lines of the calls ``rng.<method>(...)`` under ``node``."""
    return [
        sub.lineno
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and isinstance(sub.func.value, ast.Name)
        and sub.func.value.id == "rng"
    ]


PER_INSTANCE_LOOPS = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_every_criterion_draws_in_bulk():
    # no generator call in acceptance sits in a for loop or a comprehension,
    # where it would draw instance by instance; a while loop may draw what
    # was rejected again, in bulk rounds
    path = next(p for p in SOURCES if p.name == "acceptance.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _generator_calls(tree), "acceptance draws through a generator other than rng"
    loops = [node for node in ast.walk(tree) if isinstance(node, PER_INSTANCE_LOOPS)]
    looped = sorted({line for loop in loops for line in _generator_calls(loop)})
    assert looped == [], f"acceptance draws instance by instance at lines {looped}"
