"""Dense complex-matrix substrate: Hermitian operators, tensor products,
eigensystems, trace pairings, and validation of unit-trace preparations
that are allowed to have negative eigenvalues.

Every operation on instances takes one instance or a stack of them along
any number of leading axes and, as a numpy gufunc does, broadcasts over
them: the same expressions compute both, with one numpy call per stage.
One instance's 0-d results come back as Python numbers (``as_number``).
The result types (``Stacked``) hold one instance or a stack.

Per-instance work on a stack of small matrices runs with the stack
innermost: each step is one elementwise call over the whole stack, where
numpy would loop over its rows to reduce axes of length 2 to 4. A stack is
checked on strided views, with no temporary larger than one entry of it,
and a C-ordered array the package builds is kept without a copy
(``_frozen``). This module alone handles that layout (``stack_major``). A
2x2 spectrum is a closed form, chosen by dimension alone, and LAPACK's
``eigvalsh`` serves every other d. The eigenbasis is the 2x2 closed form.

Every layer rejects a bad instance through one rule, ``require``: a
validator is its passing comparison, one verdict per instance, so NaN fails
it, and a stack with one bad row raises the error that row raises alone."""

from __future__ import annotations

import itertools
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
I4 = np.eye(4, dtype=complex)
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
    """``a`` read-only: as it is if it is C-contiguous and no writable array
    holds its memory (it and the array owning its memory, its base, are
    read-only, as the package's results are once built), else a read-only
    C-contiguous copy."""
    owner = a if a.base is None else a.base
    if a.flags.writeable or not a.flags.c_contiguous or not isinstance(owner, np.ndarray) or owner.flags.writeable:
        a = np.array(a, order="C")
        a.setflags(write=False)
    return a


def stack_major(a) -> np.ndarray:
    """a^T with the stack innermost: of a stack of matrices (..., r, c),
    ``a.T`` copied C-contiguous, the matrix axes first (swapped) and the
    stack axes after them (reversed), so a ufunc's reduction over axes
    (0, 1) is one elementwise call per entry over the whole stack; of one
    matrix, the view ``a.T``. Applied to that layout, it gives a back."""
    return np.ascontiguousarray(a.T) if a.ndim > 2 else a.T


def stack_major_max(at) -> np.ndarray:
    """max over the entries of each matrix of ``at``, in the ``stack_major``
    layout, with the stack's shape."""
    return np.maximum.reduce(at, axis=(0, 1)).T


def stack_major_adjoint(at) -> np.ndarray:
    """The transpose of a^H from the transpose at of a."""
    return at.conj().swapaxes(0, 1)


def stack_major_product(at, bt) -> np.ndarray:
    """The transpose of a @ b from the transposes at and bt of a and b,
    each in the ``stack_major`` layout: (a b)^T = b^T a^T, one elementwise
    product over the whole stack for each inner index j, in place of one
    matrix product per instance. The terms are summed in index order, so
    one matrix gets the bits of its row in a stack."""
    terms = bt.swapaxes(0, 1)[:, :, None] * at[:, None]
    product = terms[0] + terms[1]
    for term in terms[2:]:
        product += term
    return product


def matrix_max(a) -> np.ndarray:
    """max over the entries of a matrix, or of each of a stack (..., r, c):
    numpy's max, bit for bit, over the ``stack_major`` entries of matrices
    up to 4x4, whose trailing axes numpy would reduce row by row, and over
    the trailing axes of larger ones, whose rows are long enough."""
    if a.shape[-1] <= 4 and a.shape[-2] <= 4:
        return stack_major_max(stack_major(a))
    return np.maximum.reduce(a, axis=(-2, -1))


def _hermitian_gap(m: np.ndarray) -> np.ndarray:
    """max |m - m^H| over the entries of a matrix m, or of each of a stack.
    A stack of matrices up to 4x4 is read on strided views, one elementwise
    call per entry |conj(m_ji) - m_ij| with i <= j (the entry j, i has the
    same value, bit for bit); one matrix, or a stack of larger ones, through
    the view m.T, which numpy reduces over m's trailing axes."""
    if m.ndim > 2 and m.shape[-1] <= 4:
        gap = None
        for i, j in itertools.combinations_with_replacement(range(m.shape[-1]), 2):
            entry = np.abs(m[..., j, i].conj() - m[..., i, j])
            gap = entry if gap is None else np.maximum(gap, entry, out=gap)
        return gap
    mt = m.T if m.ndim > 2 else m
    gap = mt.conj()
    gap -= mt.swapaxes(0, 1)  # -(m - m^H) or its transpose: the same |entries|, bit for bit
    return stack_major_max(np.abs(gap))


def _trace(m: np.ndarray) -> np.ndarray:
    """The trace of a matrix m, or of each of a stack, as ``einsum`` sums it
    on m's own memory: from 0 in index order, so one matrix and its row in
    a stack read the same bits. numpy's own sum of one matrix's diagonal is
    that order up to d = 3, and quicker; from d = 4 it sums pairwise."""
    if m.ndim == 2 and m.shape[-1] <= 3:
        return np.add.reduce(m.diagonal())
    return np.einsum("...ii->...", m)


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
    product, as in ``np.kron``, so the bits are numpy's. It is read-only."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    product.setflags(write=False)
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
        dev, tr = _hermitian_gap(m), _trace(m)
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


def hermitian_eigensystem(m) -> np.ndarray:
    """Eigenbasis of a 2x2 Hermitian matrix, or of each of a stack: the
    read-only (..., 2, 2) matrix of eigenvector columns, in closed form from
    the real diagonal a, d and the entry b below it (the entries LAPACK
    reads); any other shape is rejected.

    The columns are ordered by descending eigenvalue, ``hermitian_spectrum``
    reversed: (a+d)/2 +- rho with h = (a-d)/2 and rho = hypot(h, |b|). Each
    eigenvector's first component of magnitude > 1e-8 is real and positive;
    the decomposition is otherwise degenerate under phases, and downstream
    constructions need a deterministic choice. The eigenvector of the
    eigenvalue on h's side, (h + rho, b) for h > 0 and (rho - h, -b)
    otherwise, is taken from the row whose first entry s = |h| + rho does
    not cancel, so its pivot is real by construction; the other one is
    orthogonal to it, (-conj(b), s), up to sign, and its first entry is its
    phase pivot unless its magnitude is at most 1e-8. A multiple of the
    identity (rho = 0) has the eigenvectors LAPACK gives it, e_1 then e_0.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"eigensystem takes a 2x2 matrix or a stack of them, got shape {m.shape}")
    require(_hermitian_gap(m) <= ATOL, "eigensystem requires a Hermitian matrix")
    a, d = m[..., 0, 0].real * 0.5, m[..., 1, 1].real * 0.5
    b = m[..., 1, 0]
    h = a - d
    radius = np.hypot(h, abs(b))

    # The vector depends on h and b only up to scale: below 2^-600 both are
    # scaled up by 2^600, exactly, so that |b| and the norm keep every bit
    # where the entries are subnormal.
    up = (2.0**600) ** (radius < 2.0**-600)
    h, b = h * up, b * up
    abs_b = np.abs(b)  # numpy's loop: a complex scalar's abs may round otherwise
    pos = h > 0
    s = abs(h) + np.hypot(h, abs_b)
    s += s == 0  # s = 1 and b = 0 on a multiple of I
    norm = np.hypot(s, abs_b)
    c, g, abs_g = s / norm, b / norm * (2.0 * pos - 1.0), abs_b / norm
    # the orthogonal vector (-conj g, c) times the phase -g/|g| that makes a
    # pivot first entry real and positive, or times 1; the flags as 0 and 1
    # pick one of two values without a branch per matrix
    pivot = abs_g > 1e-8
    other = 1.0 - pivot
    phase = (other - pivot * g) / (other + pivot * abs_g)
    cols = np.empty(np.shape(h) + (2, 2), dtype=complex)
    cols[..., 0, 0], cols[..., 1, 0] = c, g
    cols[..., 0, 1], cols[..., 1, 1] = pivot * abs_g - other * g.conjugate(), c * phase
    # (c, g) belongs to the larger eigenvalue for h > 0, to the smaller otherwise
    basis = np.where(pos[..., None, None], cols, cols[..., ::-1])
    basis.setflags(write=False)
    return basis


def expectation(op, state) -> float:
    """Trace pairing Tr(state . op) for a Hermitian operator, summed
    elementwise as sum_ij state_ij op_ji (n^2 work, no matrix product).

    ``state`` may be a QuasiState or a raw matrix. A non-finite pairing, or
    an imaginary residue above SPECTRAL_ATOL (a non-Hermitian input), raises;
    ``real_pairing`` names it. Stacks broadcast over their leading axes.
    ``einsum`` sums an operand that is not C-contiguous (F-ordered, or
    broadcast with stride 0) in another order, which moves the last bits,
    so it is given none: each operand is taken C-contiguous, leading axes
    that only one operand has are paired one index at a time, and an
    operand broadcast along axes both have is copied out to their shape.
    """
    rho = np.ascontiguousarray(state.matrix if isinstance(state, QuasiState) else state, dtype=complex)
    op = np.ascontiguousarray(op, dtype=complex)
    if rho.shape[-2:] != op.shape[-2:]:
        raise ValueError(f"dimension mismatch: state {rho.shape} vs operator {op.shape}")
    if rho.shape != op.shape:
        full = np.broadcast_shapes(rho.shape, op.shape)
        rho, op = (x if x.shape == full[-x.ndim :] else np.broadcast_to(x, full[-x.ndim :]).copy() for x in (rho, op))
    if rho.ndim == op.ndim:
        return real_pairing(np.einsum("...ij,...ji->...", rho, op))
    pairings = np.empty(full[:-2], dtype=complex)
    for k in np.ndindex(full[: abs(rho.ndim - op.ndim)]):  # the shorter operand reads k[:-len(k)], all of itself
        pairings[k] = np.einsum("...ij,...ji->...", rho[k[: rho.ndim - op.ndim]], op[k[: op.ndim - rho.ndim]])
    return real_pairing(pairings)


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
