"""Shared fixtures."""

import contextlib

import numpy as np
import pytest

from quasilab import acceptance, discrimination, nonlocal_box

# numpy routines whose calls the session's run_all counts.
COUNTED = {"eigvalsh": np.linalg, "eigh": np.linalg, "kron": np}


@contextlib.contextmanager
def counting_numpy_calls():
    """Yield a dict that counts, while the block runs, the calls made to
    each routine in ``COUNTED``."""
    calls = dict.fromkeys(COUNTED, 0)
    with pytest.MonkeyPatch.context() as mp:
        for name, owner in COUNTED.items():
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            mp.setattr(owner, name, counted)
        yield calls


@pytest.fixture
def count_numpy_calls():
    """The ``counting_numpy_calls`` context manager."""
    return counting_numpy_calls


@pytest.fixture(scope="session")
def verify_all_run():
    """The nine criteria of ``verify-all`` at the default seed, run once
    per session, and the number of calls that run made to each routine
    in ``COUNTED``."""
    with counting_numpy_calls() as calls:
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
    """Counts of the instances measured (pairs passed to
    ``detection_probabilities``) and of the POVMs built (resources passed
    to ``discrimination_povm``) while the test runs, however the instances
    are stacked into calls."""
    rows_of = {"detection_probabilities": lambda pair, *_: pair.resource, "discrimination_povm": lambda r: r}
    calls = dict.fromkeys(rows_of, 0)
    for name, rows in rows_of.items():
        original = getattr(discrimination, name)

        def counted(*args, _name=name, _rows=rows, _original=original):
            calls[_name] += len(np.reshape(_rows(*args), (-1, 3)))
            return _original(*args)

        monkeypatch.setattr(discrimination, name, counted)
    return calls


@pytest.fixture(scope="session")
def verify_all_criteria(verify_all_run):
    """The criteria of the session's run, shared by the acceptance and CLI
    tests."""
    return verify_all_run[0]
