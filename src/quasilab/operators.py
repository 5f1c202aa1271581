"""Dense complex-matrix substrate: Hermitian operators, tensor products,
eigensystems, trace pairings, and validation of unit-trace preparations
that are allowed to have negative eigenvalues."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# The tolerance policy: every check and threshold in the package reads its
# bound from this table, and no call site overrides it. Sized for double
# precision on the operators the package builds: qubit and two-qubit
# operators, and the doubled (d^2)x(d^2) operators of highdim for d <= 32
# (1024x1024).
# - ATOL: arithmetic identities and the Bloch norm bound.
# - SPECTRAL_ATOL: eigendecompositions and products of d^2-dimensional
#   operators (the closed-form box, the projector oracle, detection
#   probabilities).
# - LAW_ATOL: the CHSH law, the clonability fixed point and its margin,
#   and how far below 1 a satisfying preparation's quadratic form stays.
# - PSD_ATOL: a qubit has min eigenvalue (1 - |r|)/2, so ATOL / 2 on the
#   eigenvalue is the same verdict as ATOL on the Bloch norm.
ATOL = 1e-12
SPECTRAL_ATOL = 1e-10
LAW_ATOL = 1e-9
PSD_ATOL = ATOL / 2

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_square_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def is_hermitian(m) -> bool:
    """True if max-entry deviation from the conjugate transpose is <= ATOL."""
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= ATOL)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices; output dims are the products."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class QuasiState:
    """Unit-trace Hermitian operator; positivity is *not* required.

    Negative eigenvalues encode preparations outside the quantum state
    space. ``min_eigenvalue`` is kept as a diagnostic of how far outside.
    """

    matrix: np.ndarray
    min_eigenvalue: float = field(init=False)

    def __post_init__(self):
        m = _as_square_matrix(self.matrix)
        if not is_hermitian(m):
            dev = np.max(np.abs(m - m.conj().T))
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        tr = np.trace(m)
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"trace must be 1, got {tr:.15g}")
        object.__setattr__(self, "matrix", _frozen(m))
        object.__setattr__(self, "min_eigenvalue", float(np.linalg.eigvalsh(m)[0]))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_positive(self) -> bool:
        return self.min_eigenvalue >= -PSD_ATOL


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition with eigenvalues descending and a fixed phase
    convention, so repeated runs give identical eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _frozen(np.asarray(self.eigenvectors, dtype=complex)))

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eigensystem(m) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come out descending. Each eigenvector is rescaled so that
    its first component of magnitude > 1e-8 is real and positive; the
    decomposition is otherwise degenerate under phases, and downstream
    constructions need a deterministic choice.
    """
    m = _as_square_matrix(m)
    if not is_hermitian(m):
        raise ValueError("eigensystem requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        big = np.flatnonzero(np.abs(col) > 1e-8)
        if big.size:
            pivot = col[big[0]]
            vecs[:, k] = col * (abs(pivot) / pivot)
    return Eigensystem(vals, vecs)


def expectation(op, state) -> float:
    """Trace pairing Tr(state . op) for a Hermitian operator.

    ``state`` may be a QuasiState or a raw matrix. A non-negligible
    imaginary residue (> SPECTRAL_ATOL) signals a non-Hermitian input and raises.
    """
    rho = state.matrix if isinstance(state, QuasiState) else np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if rho.shape != op.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs operator {op.shape}")
    value = np.trace(rho @ op)
    if abs(value.imag) > SPECTRAL_ATOL:
        raise ValueError(f"trace pairing has imaginary residue {value.imag:.3e}; operator not Hermitian?")
    return float(value.real)


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduce a bipartite operator to one side.

    ``dims`` are the two subsystem dimensions, ``keep`` is 0 for the first
    side and 1 for the second.
    """
    da, db = dims
    m = _as_square_matrix(m)
    if m.shape[0] != da * db:
        raise ValueError(f"matrix of dim {m.shape[0]} does not factor as {da}x{db}")
    t = m.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ijkj->ik", t)
    if keep == 1:
        return np.einsum("ijik->jk", t)
    raise ValueError("keep must be 0 or 1")
