"""Shared fixtures."""

import contextlib
import math
import sys

import numpy as np
import pytest

from quasilab import acceptance, discrimination, nonlocal_box, operators

# Routines whose calls are counted, by the module that defines them: numpy's
# two eigendecompositions and its vector norm, and the package's own kron
# and expectation.
COUNTED = {
    "eigvalsh": np.linalg,
    "eigh": np.linalg,
    "norm": np.linalg,
    "kron": operators,
    "expectation": operators,
}


def _counted(calls, name, original):
    """``original``, counting each call in ``calls[name]``."""

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return counted


@contextlib.contextmanager
def counting_calls():
    """Yield a dict that counts, while the block runs, the calls made to
    each routine in ``COUNTED``. A routine is replaced in its module and in
    every quasilab module that binds it by name (``from .operators import
    kron``), so calls between modules are counted too."""
    calls = dict.fromkeys(COUNTED, 0)
    package = [module for name, module in sys.modules.items() if name.split(".")[0] == "quasilab"]
    with pytest.MonkeyPatch.context() as mp:
        for name, owner in COUNTED.items():
            original = getattr(owner, name)
            counted = _counted(calls, name, original)
            for module in (owner, *package):
                if getattr(module, name, None) is original:
                    mp.setattr(module, name, counted)
        yield calls


@pytest.fixture
def count_calls():
    """The ``counting_calls`` context manager."""
    return counting_calls


@pytest.fixture
def calls_to(monkeypatch):
    """``calls_to(module, names)`` replaces each name as ``module`` binds it,
    for the rest of the test, and returns the dict that counts its calls."""

    def count(module, names):
        calls = dict.fromkeys(names, 0)
        for name in calls:
            monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))
        return calls

    return count


@pytest.fixture(scope="session")
def verify_all_run():
    """The nine criteria of ``verify-all`` at the default seed, run once
    per session, and the number of calls that run made to each routine
    in ``COUNTED``."""
    with counting_calls() as calls:
        criteria = acceptance.run_all(acceptance.DEFAULT_SEED)
    return criteria, calls


@pytest.fixture
def non_unitary_gates(monkeypatch):
    """Scale the doubling pipeline's rotated CNOT by 1/4 and its local
    basis change by 2. Neither gate is unitary, but the scales are exact in
    binary and cancel in the box, so only the gates' own check sees them."""
    cnot, basis_change = nonlocal_box.rotated_cnot, nonlocal_box.basis_to_computational
    monkeypatch.setattr(nonlocal_box, "rotated_cnot", lambda xi, xi_perp: 0.25 * cnot(xi, xi_perp))
    monkeypatch.setattr(nonlocal_box, "basis_to_computational", lambda xi, xi_perp: 2.0 * basis_change(xi, xi_perp))


@pytest.fixture
def discrimination_calls(monkeypatch):
    """Counts of the measurements made (pairings of a pair with a hidden
    label in ``detection_probabilities``: the broadcast shape of the
    pairs and the labels) and of the POVMs built (resources passed to
    ``discrimination_povm``) while the test runs, however the instances
    and labels are stacked into calls."""
    shape_of = {
        "detection_probabilities": lambda pair, which: np.broadcast_shapes(pair.resource.shape[:-1], np.shape(which)),
        "discrimination_povm": lambda r: np.shape(r)[:-1],
    }
    calls = dict.fromkeys(shape_of, 0)
    for name, shape in shape_of.items():
        original = getattr(discrimination, name)

        def counted(*args, _name=name, _shape=shape, _original=original):
            calls[_name] += math.prod(_shape(*args))
            return _original(*args)

        monkeypatch.setattr(discrimination, name, counted)
    return calls


@pytest.fixture(scope="session")
def verify_all_criteria(verify_all_run):
    """The criteria of the session's run, shared by the acceptance and CLI
    tests."""
    return verify_all_run[0]
