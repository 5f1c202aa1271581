"""Deterministic construction of a bipartite box from a single preparation.

Any qubit preparation of Bloch norm r is doubled into the Bell-diagonal
operator (1/2)[(1+r)|phi+><phi+| + (1-r)|phi-><phi-|] by a controlled flip
in the preparation's own eigenbasis followed by a local change of basis.
For r <= 1 the result is an ordinary two-qubit state; for r > 1 it is a
unit-trace Hermitian operator whose measurement correlations exceed the
quantum CHSH maximum 2*sqrt(2) while staying non-signalling.

Building and measuring boxes follow the package's shape rule: the shape of
``r``, or of the box, chooses one instance or a stack along any leading
axes, and the same expressions compute both, broadcasting over those axes.
The pipeline makes no LAPACK or BLAS call per instance: the source's
eigenbasis is the closed-form 2x2 eigensystem, and the gates, their
conjugations of the doubled source and their unitarity checks are computed
in the stack-innermost layout that ``operators`` owns (``stack_major``),
where a matrix product is one elementwise product and one sum per inner
index over the whole stack (``stack_major_product``); its terms are one
(4, 4, 4, N) temporary, so the gates' checks run first, while little else
is held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import as_bloch_vectors, as_directions, to_operator, vector_norms
from .operators import (
    ATOL,
    I2,
    PAULI,
    QuasiState,
    SPECTRAL_ATOL,
    Stacked,
    as_number,
    expectation,
    hermitian_eigensystem,
    kron,
    matrix_max,
    partial_trace,
    require,
    stack_major,
    stack_major_adjoint,
    stack_major_max,
    stack_major_product,
)

SQRT2 = float(np.sqrt(2.0))

# Bell vectors (|00> +- |11>)/sqrt(2) in the computational basis.
PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / SQRT2
PHI_MINUS = np.array([1, 0, 0, -1], dtype=complex) / SQRT2
_PHI_PLUS_PROJECTOR = np.outer(PHI_PLUS, PHI_PLUS.conj())
_PHI_MINUS_PROJECTOR = np.outer(PHI_MINUS, PHI_MINUS.conj())
_I4 = np.eye(4)


def _outer(u, v) -> np.ndarray:
    """|u><v| as np.outer forms it, row by row for stacks of vectors."""
    return u[..., :, None] * v.conj()[..., None, :]


def rotated_cnot(xi, xi_perp) -> np.ndarray:
    """Controlled-NOT with control and target both in the rotated basis
    spanned by (|xi> +- |xi_perp>)/sqrt(2); for (N, 2) stacks of (xi,
    xi_perp), the (N, 4, 4) stack of gates."""
    xi, xi_perp = np.asarray(xi, dtype=complex), np.asarray(xi_perp, dtype=complex)
    plus = (xi + xi_perp) / SQRT2
    minus = (xi - xi_perp) / SQRT2
    flip = _outer(xi, xi) - _outer(xi_perp, xi_perp)
    return kron(_outer(plus, plus), I2) + kron(_outer(minus, minus), flip)


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
    return 0.5 * ((1.0 + r) * _PHI_PLUS_PROJECTOR + (1.0 - r) * _PHI_MINUS_PROJECTOR)


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
            require(matrix_max(np.abs(red - I2 / 2)) <= SPECTRAL_ATOL, "box reduction is not maximally mixed")


def _gram_dev(gate_h, gate, identity) -> np.ndarray:
    """max |g^H g - I| over the entries of each gate g, from the transposes
    of g^H and g in the ``stack_major`` layout, in that layout."""
    gram = stack_major_product(gate_h, gate)
    np.subtract(gram.T, identity, out=gram.T)  # I is symmetric
    return stack_major_max(np.abs(gram))


def build_box(r) -> BipartiteBox:
    """Run the doubling pipeline on the preparation with Bloch vector ``r``.

    Steps: spectral decomposition (xi, xi_perp) of the source operator,
    attach an ancilla along (|xi> + |xi_perp>)/sqrt(2), apply the rotated
    CNOT, then rotate both sides into the computational basis. The max-entry
    deviations of the result from the closed form and of the two gates from
    unitarity are kept on the box for the reports to judge. For an (N, 3)
    stack, the stack of boxes, transposed with the stack innermost once
    (``operators.stack_major``) and back once.
    """
    rs = as_bloch_vectors(r)
    rho = to_operator(rs).matrix
    vecs = hermitian_eigensystem(rho).eigenvectors
    xi, xi_perp = vecs[..., 0], vecs[..., 1]
    plus = (xi + xi_perp) / SQRT2
    u_loc = basis_to_computational(xi, xi_perp)
    cnot, loc = stack_major(rotated_cnot(xi, xi_perp)), stack_major(u_loc)
    cnot_h = stack_major_adjoint(cnot)
    unitarity_dev = np.maximum(_gram_dev(cnot_h, cnot, _I4), _gram_dev(stack_major_adjoint(loc), loc, I2))
    doubled = stack_major_product(stack_major_product(cnot, stack_major(kron(rho, _outer(plus, plus)))), cnot_h)
    del cnot, cnot_h  # each product holds a (4, 4, 4, N) temporary
    pair = stack_major(kron(u_loc, u_loc))
    box = stack_major(stack_major_product(stack_major_product(pair, doubled), stack_major_adjoint(pair)))
    box.setflags(write=False)  # QuasiState keeps a stack's box as it is, and copies one matrix's view

    norm = vector_norms(rs)
    closed_form_dev = matrix_max(np.abs(box - closed_form_box(norm)))
    boxes = BipartiteBox(state=QuasiState(box), r=norm, closed_form_dev=closed_form_dev, unitarity_dev=unitarity_dev)
    return as_number(boxes)


@dataclass(frozen=True)
class ChshSettings(Stacked):
    """Four dichotomic observables (a1, a2 for one party, b1, b2 for the
    other), each given by the unit coefficient vector of v.sigma. A stack
    of settings holds a (..., 3) array in each field."""

    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        for name in ("a1", "a2", "b1", "b2"):
            v = np.asarray(getattr(self, name), dtype=float)
            shape_ok = v.shape == np.shape(self.a1) and v.ndim >= 1 and v.shape[-1] == 3
            unit = shape_ok and np.abs(np.sqrt(np.vecdot(v, v)) - 1.0) <= ATOL
            require(unit, "setting {} must be a unit 3-vector, or a stack of them shaped as a1", name)
            object.__setattr__(self, name, v)


def observable(v) -> np.ndarray:
    """Dichotomic observable v.sigma with eigenvalues +-1 for unit v; for
    an (N, 3) stack of vectors, the stack of observables."""
    v = np.asarray(v, dtype=float)[..., None, None]
    return v[..., 0, :, :] * PAULI[0] + v[..., 1, :, :] * PAULI[1] + v[..., 2, :, :] * PAULI[2]


def _setting_pairs(settings: ChshSettings) -> tuple[np.ndarray, np.ndarray]:
    """The a and the b of the four setting pairs (a1, b1), (a1, b2), (a2,
    b1), (a2, b2), each stacked in that order along axis -2."""
    a = np.stack((settings.a1, settings.a1, settings.a2, settings.a2), axis=-2)
    b = np.stack((settings.b1, settings.b2, settings.b1, settings.b2), axis=-2)
    return a, b


def bell_operator(settings: ChshSettings) -> np.ndarray:
    """CHSH combination A1B1 + A1B2 + A2B1 - A2B2 as a dim-4 operator (per row of a stack)."""
    a, b = _setting_pairs(settings)
    terms = kron(observable(a), observable(b))
    return terms[..., 0, :, :] + terms[..., 1, :, :] + terms[..., 2, :, :] - terms[..., 3, :, :]


TSIRELSON_SETTINGS = ChshSettings(
    a1=np.array([1, 1, 0]) / SQRT2,
    a2=np.array([1, -1, 0]) / SQRT2,
    b1=np.array([1.0, 0.0, 0.0]),
    b2=np.array([0.0, -1.0, 0.0]),
)


def chsh_settings_for(r) -> ChshSettings:
    """Measurement settings extremizing CHSH on the box of strength ``r``.

    For r <= sqrt(2) the diagonal settings give <B> = 2*sqrt(2)*r (the
    quantum maximum at r = 1). Beyond sqrt(2) those settings would push
    joint probabilities outside [0, 1], so the receiver axes tilt out of
    the equatorial plane by exactly the amount that pins every correlator
    at +-1: <B> saturates the algebraic maximum 4 with all sixteen joint
    probabilities still valid. For an array of N strengths, the stack of
    N settings, each row on its own branch.
    """
    rs = np.asarray(r, dtype=float)
    require(np.isfinite(rs) & (rs > 0), "settings are defined for finite r > 0")
    diagonal = (rs <= SQRT2)[..., None]
    # the rows on the diagonal branch have no tilt and use none of the
    # tilted components: 0 stands in for the tilt, and sqrt(2)/max(r,
    # sqrt(2)), which cannot overflow, for sqrt(2)/r
    tilt = np.sqrt(np.maximum(rs * rs - 2.0, 0.0)) / rs
    along = SQRT2 / np.maximum(rs, SQRT2)
    zero = np.zeros_like(rs)
    return ChshSettings(
        a1=np.broadcast_to(TSIRELSON_SETTINGS.a1, rs.shape + (3,)),
        a2=np.broadcast_to(TSIRELSON_SETTINGS.a2, rs.shape + (3,)),
        b1=np.where(diagonal, TSIRELSON_SETTINGS.b1, np.stack((along, zero, tilt), axis=-1)),
        b2=np.where(diagonal, TSIRELSON_SETTINGS.b2, np.stack((zero, -along, tilt), axis=-1)),
    )


def chsh_value(box: BipartiteBox, settings: ChshSettings) -> float:
    """Tr(B . box) for the CHSH operator of the given settings; for a stack
    of N boxes and a stack of N settings, the value row by row."""
    return expectation(bell_operator(settings), box.state)


@dataclass(frozen=True)
class JointDistribution(Stacked):
    """Joint outcome table p(x, y) for one pair of dichotomic settings, or
    tables stacked along leading axes.

    ``table[..., x, y]`` holds p(x, y) with x, y = +1 at index 0 and -1 at
    index 1. Each table sums to 1; ``valid[...]`` records whether its
    entries actually lie in [0, 1]. An invalid table is a diagnostic, not
    an error: it marks where the formalism leaves genuine probability.
    """

    table: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=float)
        if t.shape[-2:] != (2, 2):
            raise ValueError("joint table must be 2x2")
        sums = t.sum(axis=(-2, -1))
        require(np.abs(sums - 1.0) <= ATOL, "joint table must sum to 1, got {:.15g}", sums)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)


def _tables(rho, a, b) -> JointDistribution:
    """The tables p(x, y) = Tr[(Pi_a^x (x) Pi_b^y) rho] of dim-4 operators
    ``rho`` and unit vectors a, b of one shape broadcast against ``rho``,
    with one ``kron`` and one ``expectation`` call for all their entries."""
    # Pi_a^x of the entries (x, y) = (+, +), (+, -), (-, +), (-, -), then Pi_b^y of each
    proj = to_operator(np.stack((a, a, -a, -a, b, -b, b, -b), axis=-2)).matrix
    ops = kron(proj[..., :4, :, :], proj[..., 4:, :, :])
    pairings = expectation(ops, rho[..., None, :, :])
    table = pairings.reshape(pairings.shape[:-1] + (2, 2))
    valid = ((table >= -ATOL) & (table <= 1.0 + ATOL)).all(axis=(-2, -1))
    return as_number(JointDistribution(table=table, valid=valid))


def joint_distribution(box: BipartiteBox, a, b) -> JointDistribution:
    """Outcome table p(x, y) = Tr[(Pi_a^x (x) Pi_b^y) box] for unit
    coefficient vectors a, b; the validity flag reports whether every
    entry is a genuine probability. For a stack of N boxes and (N, 3)
    stacks a and b, the N tables, with one ``kron`` and one
    ``expectation`` call for all 4N entries."""
    return _tables(box.state.matrix, as_directions(a), as_directions(b))


def setting_tables(box: BipartiteBox, settings: ChshSettings) -> JointDistribution:
    """Joint tables for all four setting pairs (a_i, b_j): ``table[..., i,
    j, x, y]`` and ``valid[..., i, j]``, with i, j = 1, 2 at index 0, 1.
    For a stack of N boxes and a stack of N settings, the tables of each
    row, from the 16N entries of the 4N (box, a_i, b_j)."""
    pairs = _tables(box.state.matrix[..., None, :, :], *_setting_pairs(settings))
    lead = pairs.table.shape[:-3]
    return JointDistribution(table=pairs.table.reshape(lead + (2, 2, 2, 2)), valid=pairs.valid.reshape(lead + (2, 2)))


def chsh_experiment(r, tsirelson: bool = False) -> tuple:
    """The CHSH experiment on the box of the preparation ``r``: the box,
    the settings it is measured with, its CHSH value, the law's value for
    those settings, and the joint tables of ``setting_tables``.

    The settings are ``chsh_settings_for`` the box's strength, or with
    ``tsirelson`` the Tsirelson settings. The law is 2*sqrt(2)*r, except
    on the tilted branch past sqrt(2), where it is 4. A box of strength 0
    (r = 0, or a norm whose square underflows) is measured on the diagonal
    branch. For a stack of preparations, each part row by row.
    """
    box = build_box(r)
    # the diagonal branch holds the Tsirelson settings for every strength
    # up to sqrt(2), so strength 1 stands in for the box's own there
    diagonal = tsirelson | (box.r <= SQRT2)
    settings = chsh_settings_for(np.where(diagonal, 1.0, box.r))
    law = as_number(np.where(diagonal, 2.0 * SQRT2 * box.r, 4.0))
    return box, settings, chsh_value(box, settings), law, setting_tables(box, settings)


def signalling_deviation(tables: JointDistribution) -> float:
    """Largest change of any party's outcome marginal under a change of the
    other party's setting, in the tables of ``setting_tables``: 0 for a
    non-signalling box, and one value per box of a stack."""
    t = tables.table
    p_x, p_y = t.sum(axis=-1), t.sum(axis=-2)
    dev_a = matrix_max(np.abs(p_x[..., :, 0, :] - p_x[..., :, 1, :]))
    dev_b = matrix_max(np.abs(p_y[..., 0, :, :] - p_y[..., 1, :, :]))
    return as_number(np.maximum(dev_a, dev_b))
