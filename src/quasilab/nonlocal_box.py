"""Deterministic construction of a bipartite box from a single preparation.

Any qubit preparation of Bloch norm r is doubled into the Bell-diagonal
operator (1/2)[(1+r)|phi+><phi+| + (1-r)|phi-><phi-|] by a controlled flip
in the preparation's own eigenbasis followed by a local change of basis.
For r <= 1 the result is an ordinary two-qubit state; for r > 1 it is a
unit-trace Hermitian operator whose measurement correlations exceed the
quantum CHSH maximum 2*sqrt(2) while staying non-signalling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import as_bloch_vectors, pc_check, projector_for_direction, to_operator
from .operators import (
    ATOL,
    I2,
    PAULI,
    QuasiState,
    SPECTRAL_ATOL,
    Stacked,
    as_stack,
    expectation,
    hermitian_eigensystem,
    kron,
    partial_trace,
)

SQRT2 = float(np.sqrt(2.0))

# Bell vectors (|00> +- |11>)/sqrt(2) in the computational basis.
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / SQRT2
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / SQRT2


def _outer(u, v) -> np.ndarray:
    """|u><v| as np.outer forms it, row by row for stacks of vectors."""
    return u[..., :, None] * v.conj()[..., None, :]


def _dagger(m) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def rotated_cnot(xi, xi_perp) -> np.ndarray:
    """Controlled-NOT with control and target both in the rotated basis
    spanned by (|xi> +- |xi_perp>)/sqrt(2); for (N, 2) stacks of (xi,
    xi_perp), the (N, 4, 4) stack of gates."""
    shaped, xi, xi_perp = as_stack(1, np.asarray(xi, dtype=complex), np.asarray(xi_perp, dtype=complex))
    plus = (xi + xi_perp) / SQRT2
    minus = (xi - xi_perp) / SQRT2
    flip = _outer(xi, xi) - _outer(xi_perp, xi_perp)
    return shaped(kron(_outer(plus, plus), I2[None]) + kron(_outer(minus, minus), flip))


def basis_to_computational(xi, xi_perp) -> np.ndarray:
    """Local unitary |0><+| + |1><-| taking the rotated basis to the
    computational one; for stacks of (xi, xi_perp), the stack of gates."""
    xi, xi_perp = np.asarray(xi, dtype=complex), np.asarray(xi_perp, dtype=complex)
    plus = (xi + xi_perp) / SQRT2
    minus = (xi - xi_perp) / SQRT2
    ket0 = np.array([1, 0], dtype=complex)
    ket1 = np.array([0, 1], dtype=complex)
    return _outer(ket0, plus) + _outer(ket1, minus)


def closed_form_box(r) -> np.ndarray:
    """Bell-diagonal target (1/2)[(1+r) phi+ + (1-r) phi-] of the pipeline;
    for an array of norms, the stack of targets."""
    r = np.asarray(r, dtype=float)[..., None, None]
    return 0.5 * ((1.0 + r) * np.outer(PHI_PLUS, PHI_PLUS.conj()) + (1.0 - r) * np.outer(PHI_MINUS, PHI_MINUS.conj()))


@dataclass(frozen=True)
class BipartiteBox(Stacked):
    """Two-party box: a dim-4 unit-trace Hermitian operator whose one-side
    reductions are both maximally mixed, plus the source norm r, the
    max-entry deviation of the operator from ``closed_form_box(r)`` and
    that of the pipeline's gates from unitarity. A stack of N boxes has
    one of each per box."""

    state: QuasiState
    r: float
    closed_form_dev: float
    unitarity_dev: float

    def __post_init__(self):
        if self.state.dim != 4:
            raise ValueError("a bipartite box lives on two qubits (dim 4)")
        for side in (0, 1):
            red = partial_trace(self.state.matrix, (2, 2), keep=side)
            if np.abs(red - I2 / 2).max(initial=0.0) > SPECTRAL_ATOL:
                raise ValueError("box reduction is not maximally mixed")


def _max_dev(m, target) -> np.ndarray:
    return np.abs(m - target).max(axis=(-2, -1))


def build_box(r) -> BipartiteBox:
    """Run the doubling pipeline on the preparation with Bloch vector ``r``.

    Steps: spectral decomposition (xi, xi_perp) of the source operator,
    attach an ancilla along (|xi> + |xi_perp>)/sqrt(2), apply the rotated
    CNOT, then rotate both sides into the computational basis. The max-entry
    deviations of the result from the closed form and of the two gates from
    unitarity are kept on the box for the reports to judge. For an (N, 3)
    stack, the stack of boxes: one eigendecomposition call and one product
    per pipeline stage for the whole stack.
    """
    shaped, rs = as_stack(1, as_bloch_vectors(r))
    rho = to_operator(rs).matrix
    vecs = hermitian_eigensystem(rho).eigenvectors
    xi, xi_perp = vecs[:, :, 0], vecs[:, :, 1]
    plus = (xi + xi_perp) / SQRT2
    u, u_loc = rotated_cnot(xi, xi_perp), basis_to_computational(xi, xi_perp)
    doubled = u @ kron(rho, _outer(plus, plus)) @ _dagger(u)
    u_pair = kron(u_loc, u_loc)
    box = u_pair @ doubled @ _dagger(u_pair)

    norm = pc_check(rs).norm
    unitarity_dev = np.maximum(_max_dev(_dagger(u) @ u, np.eye(4)), _max_dev(_dagger(u_loc) @ u_loc, np.eye(2)))
    boxes = BipartiteBox(
        state=QuasiState(box), r=norm, closed_form_dev=_max_dev(box, closed_form_box(norm)), unitarity_dev=unitarity_dev
    )
    return shaped(boxes)


@dataclass(frozen=True)
class ChshSettings:
    """Four dichotomic observables (a1, a2 for one party, b1, b2 for the
    other), each given by the unit coefficient vector of v.sigma."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or abs(np.linalg.norm(v) - 1.0) > ATOL:
                raise ValueError(f"setting {name} must be a unit 3-vector")
            object.__setattr__(self, name, v)


def observable(v) -> np.ndarray:
    """Dichotomic observable v.sigma with eigenvalues +-1 for unit v; for
    an (N, 3) stack of vectors, the stack of observables."""
    v = np.asarray(v, dtype=float)[..., None, None]
    return v[..., 0, :, :] * PAULI[0] + v[..., 1, :, :] * PAULI[1] + v[..., 2, :, :] * PAULI[2]


def bell_operator(settings: ChshSettings) -> np.ndarray:
    """CHSH combination A1B1 + A1B2 + A2B1 - A2B2 as a dim-4 operator."""
    a1, a2 = observable(settings.a1), observable(settings.a2)
    b1, b2 = observable(settings.b1), observable(settings.b2)
    return kron(a1, b1) + kron(a1, b2) + kron(a2, b1) - kron(a2, b2)


TSIRELSON_SETTINGS = ChshSettings(
    a1=np.array([1, 1, 0]) / SQRT2,
    a2=np.array([1, -1, 0]) / SQRT2,
    b1=np.array([1.0, 0.0, 0.0]),
    b2=np.array([0.0, -1.0, 0.0]),
)


def chsh_settings_for(r: float) -> ChshSettings:
    """Measurement settings extremizing CHSH on the box of strength ``r``.

    For r <= sqrt(2) the diagonal settings give <B> = 2*sqrt(2)*r (the
    quantum maximum at r = 1). Beyond sqrt(2) those settings would push
    joint probabilities outside [0, 1], so the receiver axes tilt out of
    the equatorial plane by exactly the amount that pins every correlator
    at +-1: <B> saturates the algebraic maximum 4 with all sixteen joint
    probabilities still valid.
    """
    if r <= 0:
        raise ValueError("settings are defined for r > 0")
    if r <= SQRT2:
        return TSIRELSON_SETTINGS
    tilt = float(np.sqrt(r * r - 2.0)) / r
    return ChshSettings(
        a1=TSIRELSON_SETTINGS.a1,
        a2=TSIRELSON_SETTINGS.a2,
        b1=np.array([SQRT2 / r, 0.0, tilt]),
        b2=np.array([0.0, -SQRT2 / r, tilt]),
    )


def chsh_value(box: BipartiteBox, settings: ChshSettings) -> float:
    """Tr(B . box) for the CHSH operator of the given settings."""
    return expectation(bell_operator(settings), box.state)


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome table p(x, y) for one pair of dichotomic settings.

    ``table[i, j]`` holds p(x, y) with x, y = +1 at index 0 and -1 at
    index 1. Entries always sum to 1; the ``valid`` flag records whether
    each one actually lies in [0, 1]. An invalid table is a diagnostic,
    not an error: it marks where the formalism leaves genuine probability.
    """

    table: np.ndarray
    valid: bool

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2, 2):
            raise ValueError("joint table must be 2x2")
        if abs(t.sum() - 1.0) > ATOL:
            raise ValueError(f"joint table must sum to 1, got {t.sum():.15g}")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def marginal_a(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.table.sum(axis=0)


def joint_distribution(box: BipartiteBox, a, b) -> JointDistribution:
    """Outcome table p(x, y) = Tr[(Pi_a^x (x) Pi_b^y) box] for unit
    coefficient vectors a, b; the validity flag reports whether every
    entry is a genuine probability."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    a_proj = (projector_for_direction(a), projector_for_direction(-a))
    b_proj = (projector_for_direction(b), projector_for_direction(-b))
    table = np.empty((2, 2))
    for i, pa in enumerate(a_proj):
        for j, pb in enumerate(b_proj):
            table[i, j] = expectation(kron(pa, pb), box.state)
    valid = bool(np.all(table >= -ATOL) and np.all(table <= 1.0 + ATOL))
    return JointDistribution(table=table, valid=valid)


def setting_tables(box: BipartiteBox, settings: ChshSettings) -> dict[tuple[int, int], JointDistribution]:
    """Joint tables for all four setting pairs, keyed by (i, j) in 1..2."""
    a = {1: settings.a1, 2: settings.a2}
    b = {1: settings.b1, 2: settings.b2}
    return {(i, j): joint_distribution(box, a[i], b[j]) for i in (1, 2) for j in (1, 2)}


def signalling_deviation(tables: dict[tuple[int, int], JointDistribution]) -> float:
    """Largest change of any party's outcome marginal under a change of the
    other party's setting; 0 for a non-signalling table grid."""
    dev = 0.0
    for i in (1, 2):
        dev = max(dev, float(np.max(np.abs(tables[(i, 1)].marginal_a() - tables[(i, 2)].marginal_a()))))
    for j in (1, 2):
        dev = max(dev, float(np.max(np.abs(tables[(1, j)].marginal_b() - tables[(2, j)].marginal_b()))))
    return dev
