"""Dense complex-matrix substrate: Hermitian operators, tensor products,
eigensystems, trace pairings, and validation of unit-trace preparations
that are allowed to have negative eigenvalues.

The qubit layers compute on stacks: a ``*_batch`` kernel takes N instances
along a leading axis and makes one numpy call per stage for all of them,
and its scalar function is the kernel's result on a stack of one. The
result types (``Stacked``) hold one instance or a stack of N."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The tolerance policy: every check and threshold in the package reads its
# bound from this table, and no call site overrides it. Sized for double
# precision on the operators the package builds: qubit and two-qubit
# operators, and the doubled (d^2)x(d^2) operators of highdim for d <= 32
# (1024x1024).
# - ATOL: arithmetic identities and the Bloch norm bound.
# - SPECTRAL_ATOL: eigendecompositions, the dense (d^2)x(d^2) projector
#   and its oracle, the closed-form box, and the detection probabilities
#   computed in the violating state's eigenbasis.
# - LAW_ATOL: the CHSH law, the clonability fixed point and its margin,
#   and how far below 1 a satisfying preparation's quadratic form stays.
# - PSD_ATOL: a qubit has eigenvalues (1 -+ |r|)/2, so ATOL / 2 below 0 on
#   the smallest or above 1 on the largest is the same verdict as ATOL on
#   the Bloch norm.
ATOL = 1e-12
SPECTRAL_ATOL = 1e-10
LAW_ATOL = 1e-9
PSD_ATOL = ATOL / 2

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def _as_square(m, ndims: tuple[int, ...] = (2,)) -> np.ndarray:
    """``m`` as complex, checked to be a square matrix (ndim 2) or a stack
    of them (ndim 3), as ``ndims`` allows."""
    m = np.asarray(m, dtype=complex)
    if m.ndim not in ndims or m.shape[-1] != m.shape[-2]:
        kind = "a square matrix" if 2 in ndims else "a stack of square matrices"
        raise ValueError(f"expected {kind}, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def _hermitian_gap(m: np.ndarray) -> np.ndarray:
    """Entrywise |m - m^H|, for a matrix or a stack of them."""
    return np.abs(m - m.conj().swapaxes(-1, -2))


def is_hermitian(m) -> bool:
    """True if max-entry deviation from the conjugate transpose is <= ATOL."""
    return bool(_hermitian_gap(np.asarray(m, dtype=complex)).max() <= ATOL)


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices; output dims are the products."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_batch(a, b) -> np.ndarray:
    """``kron`` row by row over two stacks of N matrices. Every entry is one
    product, as in ``kron``, so row k equals kron(a[k], b[k]) bit for bit."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    n, (ra, ca), (rb, cb) = len(a), a.shape[1:], b.shape[1:]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, ra * rb, ca * cb)


class Stacked:
    """Mixin of the frozen dataclasses that hold one instance, or a stack of
    N instances along a leading axis of every field (what the ``*_batch``
    kernels return). ``s[k]`` is instance k of a stack and ``x[None]`` is a
    single instance as a stack of one; numpy scalars come out as Python
    ones. Neither is checked again: a stack is checked row by row when it
    is built, so each of its rows has passed the checks of one instance."""

    def __getitem__(self, index):
        picked = object.__new__(type(self))
        for name in self.__dataclass_fields__:
            object.__setattr__(picked, name, _pick(getattr(self, name), index))
        return picked


def _pick(value, index):
    if isinstance(value, Stacked):
        return value[index]
    picked = np.asarray(value)[index]
    return picked.item() if picked.ndim == 0 else picked


@dataclass(frozen=True)
class QuasiState(Stacked):
    """Unit-trace Hermitian operator; positivity is *not* required.

    Negative eigenvalues encode preparations outside the quantum state
    space. The spectrum is computed when read, not on construction;
    ``min_eigenvalue`` says how far outside a preparation lies. A stack of
    N operators (``matrix`` of shape (N, d, d)) is checked row by row, and
    its spectral properties hold one value per operator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_square(self.matrix, ndims=(2, 3))
        rows = m.reshape((-1,) + m.shape[-2:])
        gap = _hermitian_gap(rows)
        tr = rows.trace(axis1=1, axis2=2)
        if not (gap.max(initial=0.0) <= ATOL and np.abs(tr - 1.0).max(initial=0.0) <= ATOL):
            dev = gap.max(axis=(1, 2))
            k = np.argmin((dev <= ATOL) & (np.abs(tr - 1.0) <= ATOL))
            if not dev[k] <= ATOL:
                raise ValueError(f"matrix is not Hermitian (max deviation {dev[k]:.3e})")
            raise ValueError(f"trace must be 1, got {tr[k]:.15g}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending, computed on each read."""
        return np.linalg.eigvalsh(self.matrix)

    @property
    def min_eigenvalue(self):
        """The smallest eigenvalue (one per operator of a stack)."""
        return self.eigenvalues.min(axis=-1)

    def is_positive(self):
        """Whether the smallest eigenvalue is at least -PSD_ATOL (one verdict
        per operator of a stack)."""
        return self.min_eigenvalue >= -PSD_ATOL


@dataclass(frozen=True)
class Eigensystem(Stacked):
    """Spectral decomposition with eigenvalues descending and a fixed phase
    convention, so repeated runs give identical eigenvectors (of each
    matrix, for a stack)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, one per eigenvalue

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _frozen(np.asarray(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _frozen(np.asarray(self.eigenvectors, dtype=complex)))


def hermitian_eigensystem(m) -> Eigensystem:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues come out descending. Each eigenvector is rescaled so that
    its first component of magnitude > 1e-8 is real and positive; the
    decomposition is otherwise degenerate under phases, and downstream
    constructions need a deterministic choice.
    """
    return hermitian_eigensystem_batch(_as_square(m)[None])[0]


def hermitian_eigensystem_batch(ms) -> Eigensystem:
    """``hermitian_eigensystem`` of each matrix of an (N, d, d) stack, with
    one ``eigh`` call and the phase rule applied per eigenvector."""
    ms = _as_square(ms, ndims=(3,))
    if not _hermitian_gap(ms).max(initial=0.0) <= ATOL:
        raise ValueError("eigensystem requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(ms)
    vals, vecs = vals[:, ::-1], vecs[:, :, ::-1]
    big = np.abs(vecs) > 1e-8
    n, d = vals.shape
    pivot = vecs[np.arange(n)[:, None], big.argmax(axis=1), np.arange(d)]
    phase = np.divide(np.abs(pivot), pivot, out=np.ones_like(pivot), where=big.any(axis=1))
    return Eigensystem(vals, vecs * phase[:, None, :])


def expectation(op, state) -> float:
    """Trace pairing Tr(state . op) for a Hermitian operator, summed
    elementwise as sum_ij state_ij op_ji (n^2 work, no matrix product).

    ``state`` may be a QuasiState or a raw matrix. A non-negligible
    imaginary residue (> SPECTRAL_ATOL) signals a non-Hermitian input and raises.
    """
    rho = state.matrix if isinstance(state, QuasiState) else np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if rho.shape != op.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs operator {op.shape}")
    return real_pairing(np.einsum("ij,ji->", rho, op))


def expectation_batch(ops, states) -> np.ndarray:
    """``expectation`` row by row over (N, n, n) stacks of operators and
    states (either may be one matrix shared by every row); raises as
    ``expectation`` does, on the first row with an imaginary residue."""
    rho = states.matrix if isinstance(states, QuasiState) else np.asarray(states, dtype=complex)
    values = np.einsum("...ij,...ji->...", rho, np.asarray(ops, dtype=complex))
    residue = np.abs(values.imag) > SPECTRAL_ATOL
    if residue.any():
        real_pairing(values[np.argmax(residue)])
    return values.real


def real_pairing(value: complex) -> float:
    """The real value of a trace pairing. An imaginary residue above
    SPECTRAL_ATOL signals a non-Hermitian input and raises."""
    if abs(value.imag) > SPECTRAL_ATOL:
        raise ValueError(f"trace pairing has imaginary residue {value.imag:.3e}; operator not Hermitian?")
    return float(value.real)


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduce a bipartite operator, or each of a stack of them, to one side.

    ``dims`` are the two subsystem dimensions, ``keep`` is 0 for the first
    side and 1 for the second.
    """
    da, db = dims
    m = _as_square(m, ndims=(2, 3))
    if m.shape[-1] != da * db:
        raise ValueError(f"matrix of dim {m.shape[-1]} does not factor as {da}x{db}")
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if keep == 0:
        return np.einsum("...ijkj->...ik", t)
    if keep == 1:
        return np.einsum("...ijik->...jk", t)
    raise ValueError("keep must be 0 or 1")
