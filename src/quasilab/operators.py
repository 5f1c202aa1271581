"""Dense complex-matrix substrate: Hermitian operators, tensor products,
eigensystems, trace pairings, and validation of unit-trace preparations
that are allowed to have negative eigenvalues.

Every operation on instances takes one instance or a stack of them along
any number of leading axes and, as a numpy gufunc does, broadcasts over
them: the same expressions compute both, with one numpy call per stage.
One instance's 0-d results come back as Python numbers (``as_number``).
The result types (``Stacked``) hold one instance or a stack.

Per-instance work on a stack of small matrices runs with the stack
innermost. A reduction over the matrix axes (the max of ``matrix_max``, the
Hermitian gap and the trace that ``QuasiState`` checks) reduces the
``stack_major`` copy, so each step is one elementwise call over the whole
stack, where numpy would loop over the rows to reduce axes of length 2 to
4. The spectrum of a 2x2 matrix is the closed form (a+d)/2 -+
hypot((a-d)/2, |b|) of its entries, in place of one LAPACK call per matrix;
``hermitian_spectrum`` picks it by dimension alone, and LAPACK's
``eigvalsh`` serves every other d.

Every layer rejects a bad instance through one rule, ``require``: a
validator is its passing comparison, one verdict per instance, so NaN fails
it, and a stack with one bad row raises the error that row raises alone."""

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


def _as_square(m) -> np.ndarray:
    """``m`` as complex, checked to be a square matrix or a stack of them (..., d, d)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    return m


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def stack_major(a) -> np.ndarray:
    """A stack of matrices (..., r, c) with the stack innermost: ``a.T``,
    copied C-contiguous, so the matrix axes come first (swapped) and the
    stack axes after them (reversed). A ufunc's reduction over axes (0, 1)
    then runs one elementwise call per entry over the whole stack, where
    reducing the last two axes of a stack of small matrices makes numpy
    loop over its rows; ``.T`` of the result has the stack's shape. One
    matrix has no stack to put innermost and is returned as it is: every
    reduction here reads both matrix axes, in either order."""
    return np.ascontiguousarray(a.T) if a.ndim > 2 else a


def matrix_max(a) -> np.ndarray:
    """max over the entries of a matrix, or of each of a stack (..., r, c):
    numpy's max, bit for bit, over the ``stack_major`` entries."""
    return np.maximum.reduce(stack_major(a), axis=(0, 1)).T


def _hermitian_gap(mt: np.ndarray) -> np.ndarray:
    """max |m - m^H| over the entries of a matrix m, or of each of a stack,
    from its ``stack_major`` form mt."""
    gap = mt.conj()
    gap -= mt.swapaxes(0, 1)  # -(m - m^H) or its transpose: the same |entries|, bit for bit
    return np.maximum.reduce(np.abs(gap), axis=(0, 1)).T


def _trace(mt: np.ndarray) -> np.ndarray:
    """The trace of a matrix m, or of each of a stack, from its
    ``stack_major`` form mt. One matrix's diagonal is summed as numpy's
    trace sums it. A stack's diagonals are summed in index order, which is
    numpy's trace bit for bit up to d = 3; numpy sums a longer complex
    diagonal pairwise, so from d = 4 a stack's traces may differ from it in
    the last bit."""
    return np.add.reduce(mt.diagonal(), axis=-1).T


def hermitian_spectrum(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each of a stack, ascending.
    At d = 2 they are the closed form (a+d)/2 -+ hypot((a-d)/2, |b|) of the
    real diagonal a, d and the entry b below it, the entries LAPACK's
    ``eigvalsh`` reads; at any other d they are ``eigvalsh``'s."""
    m = np.asarray(m)
    if m.shape[-2:] != (2, 2):
        return np.linalg.eigvalsh(m)
    a, d = m[..., 0, 0].real * 0.5, m[..., 1, 1].real * 0.5
    radius = np.hypot(a - d, np.abs(m[..., 1, 0]))
    mean = a + d
    spectrum = np.empty(mean.shape + (2,))
    np.subtract(mean, radius, out=spectrum[..., 0])
    np.add(mean, radius, out=spectrum[..., 1])
    return spectrum


class Stacked:
    """Mixin of the frozen dataclasses that hold one instance, or a stack of
    N instances along a leading axis of every field (what an operation
    returns for a stack). ``s[k]`` is instance k of a stack, with numpy
    scalars as Python ones. It is not checked again: a stack is checked row
    by row when it is built, so each of its rows has passed the checks of
    one instance."""

    def __getitem__(self, index):
        picked = object.__new__(type(self))
        for name in self.__dataclass_fields__:
            object.__setattr__(picked, name, _pick(getattr(self, name), index))
        return picked


def _pick(value, index):
    if isinstance(value, tuple):
        return tuple(_pick(part, index) for part in value)
    if isinstance(value, Stacked):
        return value[index]
    picked = np.asarray(value)[index]
    return picked.item() if picked.ndim == 0 else picked


def as_number(result):
    """The one exit of the shape rule: a result computed by broadcasting
    over leading axes with its 0-d values (one instance) as Python numbers,
    a tuple part by part and a ``Stacked`` field by field; a stack's result
    as it is."""
    return _pick(result, ())


def require(ok, message: str, *values, error: type[Exception] = ValueError) -> None:
    """The one rejection rule. ``ok`` is the passing comparison, one
    verdict per instance. Unless every verdict holds, raise
    ``error(message.format(*values))`` with each value taken at the first
    failing instance in row-major order, as a Python number; values
    broadcast against ``ok``, and one with trailing axes beyond those of
    ``ok`` is given as that instance's row, as a list."""
    ok = np.asarray(ok)
    if np.count_nonzero(ok) == ok.size:
        return
    first = np.unravel_index(np.argmin(ok), ok.shape)
    picked = (np.broadcast_to(v, ok.shape + np.shape(v)[ok.ndim :])[first].tolist() for v in values)
    raise error(message.format(*picked))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices; output dims are the products. For
    two stacks of N matrices, the product row by row. Every entry is one
    product, as in ``np.kron``, so the bits are numpy's."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (ra * rb, ca * cb))


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
        m = _as_square(self.matrix)
        # one verdict per operator on both conditions; the first bad one raises
        mt = stack_major(m)
        dev, tr = _hermitian_gap(mt), _trace(mt)
        ok = (dev <= ATOL) & (np.abs(tr - 1.0) <= ATOL)
        require(ok, "matrix must be Hermitian with trace 1, got max deviation {:.3e} and trace {:.15g}", dev, tr)
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def eigenvalues(self) -> np.ndarray:
        """The spectrum, ascending (``hermitian_spectrum``), computed on each read."""
        return hermitian_spectrum(self.matrix)

    @property
    def min_eigenvalue(self):
        """The smallest eigenvalue (one per operator of a stack)."""
        return self.eigenvalues[..., 0]

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
    constructions need a deterministic choice. For an (N, d, d) stack, the
    eigensystem of each matrix, with one ``eigh`` call.
    """
    m = _as_square(m)
    require(_hermitian_gap(stack_major(m)) <= ATOL, "eigensystem requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(m)
    vals, vecs = vals[..., ::-1], vecs[..., ::-1]
    big = np.abs(vecs) > 1e-8
    pivot = np.take_along_axis(vecs, big.argmax(axis=-2)[..., None, :], axis=-2)[..., 0, :]
    phase = np.divide(np.abs(pivot), pivot, out=np.ones_like(pivot), where=big.any(axis=-2))
    return Eigensystem(vals, vecs * phase[..., None, :])


def expectation(op, state) -> float:
    """Trace pairing Tr(state . op) for a Hermitian operator, summed
    elementwise as sum_ij state_ij op_ji (n^2 work, no matrix product).

    ``state`` may be a QuasiState or a raw matrix. A non-negligible
    imaginary residue (> SPECTRAL_ATOL) signals a non-Hermitian input and raises,
    as does a non-finite pairing. Stacks broadcast over their leading axes,
    and ``real_pairing`` names the failing pairing. A broadcast operand is copied
    out in full first: with a stride-0 operand ``einsum`` sums in another
    order, which changes the last bits of the pairings.
    """
    rho = state.matrix if isinstance(state, QuasiState) else np.asarray(state, dtype=complex)
    op = np.asarray(op, dtype=complex)
    if rho.shape[-2:] != op.shape[-2:]:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs operator {op.shape}")
    full = np.broadcast_shapes(rho.shape, op.shape)
    rho, op = (x if x.shape == full else np.broadcast_to(x, full).copy() for x in (rho, op))
    return real_pairing(np.einsum("...ij,...ji->...", rho, op))


def real_pairing(value: complex) -> float:
    """The real value of a trace pairing, or of each of an array of them. A
    non-finite value raises, and so does an imaginary residue above
    SPECTRAL_ATOL, which signals a non-Hermitian input; in an array, the
    first non-finite value raises, or else the first residue."""
    if np.ndim(value) == 0 and np.isfinite(value) and abs(value.imag) <= SPECTRAL_ATOL:
        return float(value.real)
    require(np.isfinite(value), "trace pairing is not finite ({}); operator or state not finite?", value)
    require(
        np.abs(value.imag) <= SPECTRAL_ATOL,
        "trace pairing has imaginary residue {:.3e}; operator not Hermitian?",
        value.imag,
    )
    return value.real


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Reduce a bipartite operator, or each of a stack of them, to one side.

    ``dims`` are the two subsystem dimensions, ``keep`` is 0 for the first
    side and 1 for the second.
    """
    da, db = dims
    m = _as_square(m)
    if m.shape[-1] != da * db:
        raise ValueError(f"matrix of dim {m.shape[-1]} does not factor as {da}x{db}")
    t = m.reshape(m.shape[:-2] + (da, db, da, db))
    if keep == 0:
        return np.einsum("...ijkj->...ik", t)
    if keep == 1:
        return np.einsum("...ijik->...jk", t)
    raise ValueError("keep must be 0 or 1")
