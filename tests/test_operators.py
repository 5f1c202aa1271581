"""Operator substrate: tensor products, trace pairings, eigensystems, and
validation of unit-trace Hermitian (possibly non-positive) matrices."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import assert_qubit_eigensystem, same_bits, same_bits_but_nan_signs
from quasilab import acceptance
from quasilab.cli import MAX_BOX_NORM
from quasilab.nonlocal_box import build_box
from quasilab.bloch import scale_directions, to_operator
from quasilab.operators import (
    ATOL,
    I2,
    PSD_ATOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QuasiState,
    _hermitian_gap,
    _trace,
    expectation,
    hermitian_eigensystem,
    hermitian_spectrum,
    kron,
    matrix_max,
    partial_trace,
    real_pairing,
    require,
    stack_major,
    stack_major_adjoint,
    stack_major_product,
)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def rho_z(r):
    return 0.5 * (I2 + r * SIGMA_Z)


ELEMENTS = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def small_complex_matrix(max_dim=3):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: arrays(np.complex128, (n, m), elements=ELEMENTS)
        )
    )


def small_square_matrix(max_dim=3):
    return st.integers(1, max_dim).flatmap(lambda n: arrays(np.complex128, (n, n), elements=ELEMENTS))


class TestKron:
    def test_identity_case(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_diagonal_product(self):
        assert np.allclose(kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]))

    def test_bell_vector_is_xx_eigenvector(self):
        # oracle: direct matrix-vector multiply, eigenvalue +1
        assert np.allclose(kron(SIGMA_X, SIGMA_X) @ BELL, BELL, atol=1e-15)

    @settings(max_examples=60)
    @given(small_complex_matrix(), small_complex_matrix(), small_complex_matrix())
    def test_associativity(self, a, b, c):
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)

    @settings(max_examples=60)
    @given(small_square_matrix(), small_square_matrix())
    def test_trace_multiplicative(self, a, b):
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) <= 1e-12


def test_batched_kron_and_pairing_match_the_scalar_ones_bit_for_bit():
    # each row of a stack is what the single call gives, and the single
    # kron is numpy's (every entry is one product)
    rng = np.random.default_rng(8)
    a = rng.normal(size=(50, 2, 3)) + 1j * rng.normal(size=(50, 2, 3))
    b = rng.normal(size=(50, 3, 2)) + 1j * rng.normal(size=(50, 3, 2))
    stacked = kron(a, b)
    assert all(np.array_equal(stacked[k], kron(a[k], b[k])) for k in range(50))
    assert all(np.array_equal(stacked[k], np.kron(a[k], b[k])) for k in range(50))
    ops, states = (m + m.conj().swapaxes(1, 2) for m in (kron(a, b), kron(b, a)))
    pairings = expectation(ops, states)
    assert all(pairings[k] == expectation(ops[k], states[k]) for k in range(50))
    assert type(expectation(ops[0], states[0])) is float


class TestExpectation:
    def test_identity_gives_unit_trace(self):
        state = QuasiState(rho_z(1.7))
        assert expectation(np.eye(2), state) == pytest.approx(1.0, abs=1e-14)

    def test_eigenstate(self):
        assert expectation(SIGMA_Z, QuasiState(rho_z(1.0))) == pytest.approx(1.0, abs=1e-14)

    def test_beyond_unit_norm(self):
        # oracle: mean value equals the Bloch component along z
        assert expectation(SIGMA_Z, QuasiState(rho_z(1.5))) == pytest.approx(1.5, abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            expectation(np.eye(4), QuasiState(rho_z(0.5)))

    def test_imaginary_residue_rejected(self):
        skew = np.array([[0, 1], [-1, 0]], dtype=complex)  # anti-Hermitian
        with pytest.raises(ValueError, match="imaginary"):
            expectation(skew, QuasiState(0.5 * (I2 + 0.8 * SIGMA_Y)))

    # the array has a residue at index 1 and a NaN at index 3: the NaN is named
    @pytest.mark.parametrize(
        "value",
        [complex("nan+nanj"), complex("nan"), complex("infj"), complex("-inf"), np.array([1, 1 + 1e-3j, 0.5, np.nan])],
    )
    def test_non_finite_pairing_rejected(self, value):
        with pytest.raises(ValueError, match="not finite"):
            real_pairing(value)

    @pytest.mark.parametrize("value", [np.complex128(0.25 + 1e-12j), np.array(0.25 + 0j)])
    def test_one_sound_pairing_is_a_python_float(self, value):
        assert type(real_pairing(value)) is float and real_pairing(value) == 0.25

    def test_nan_operator_rejected(self):
        # a NaN residue is not below the tolerance, so it is no real pairing
        with pytest.raises(ValueError, match="not finite"):
            expectation(np.full((2, 2), np.nan), QuasiState(rho_z(0.5)))
        ops = np.stack((np.eye(2), np.full((2, 2), np.nan)))
        with pytest.raises(ValueError, match="not finite"):
            expectation(ops, np.stack((rho_z(0.5), rho_z(0.5))))

    def test_bilinear(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a, b = a + a.conj().T, b + b.conj().T
            rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = rho + rho.conj().T
            x, y = rng.normal(size=2)
            lhs = expectation(x * a + y * b, rho)
            assert abs(lhs - x * expectation(a, rho) - y * expectation(b, rho)) <= 1e-12


class TestEigensystem:
    def test_pauli_z(self):
        eig = hermitian_eigensystem(SIGMA_Z)
        assert np.allclose(eig.eigenvalues, [1, -1])
        assert np.allclose(eig.eigenvectors[:, 0], [1, 0])
        assert np.allclose(np.abs(eig.eigenvectors[:, 1]), [0, 1])

    def test_bloch_state_spectrum(self):
        # (1 +- r)/2, here with r = 1.5
        eig = hermitian_eigensystem(rho_z(1.5))
        assert np.allclose(eig.eigenvalues, [1.25, -0.25], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_other_shapes_by_name(self):
        # the closed form is the 2x2 one alone
        with pytest.raises(ValueError, match=r"2x2 matrix .* got shape \(3, 3\)"):
            hermitian_eigensystem(np.diag([0.85, 0.25, -0.1]))


class TestValidateQuasistate:
    def test_negative_eigenvalue_accepted(self):
        state = QuasiState(rho_z(1.5))
        assert state.min_eigenvalue == pytest.approx(-0.25, abs=1e-14)
        assert not state.is_positive()

    def test_spectrum_ascending(self):
        state = QuasiState(np.diag([0.85, 0.25, -0.1]).astype(complex))
        assert np.allclose(state.eigenvalues, [-0.1, 0.25, 0.85], atol=1e-14)
        assert state.min_eigenvalue == state.eigenvalues[0]

    def test_traceless_rejected(self):
        with pytest.raises(ValueError, match=r"and trace 0\+0j$"):
            QuasiState(SIGMA_X)

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match=r"max deviation 1\.000e\+00 "):
            QuasiState(m)

    def test_stack_names_both_numbers_of_its_first_bad_operator(self):
        # row 1 fails the trace, row 2 Hermiticity: row 1's numbers are named
        skew = np.array([[0.5, 1], [0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match=r"max deviation 0\.000e\+00 and trace 0\+0j$"):
            QuasiState(np.stack((rho_z(0.5), SIGMA_X, skew)))

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            state = QuasiState(np.eye(d) / d)
            assert state.min_eigenvalue == pytest.approx(1 / d, abs=1e-14)
            assert state.is_positive()

    def test_matrix_is_immutable(self):
        state = QuasiState(np.eye(2) / 2)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 3.0

    def test_hermiticity_tolerance(self):
        # SIGMA_Y's imaginary entries are Hermitian; a 1e-9 skew is past ATOL
        QuasiState(0.5 * (I2 + 0.8 * SIGMA_Y))
        with pytest.raises(ValueError, match=r"max deviation 1\.000e-09 "):
            QuasiState(0.5 * (I2 + 0.8 * SIGMA_Y) + 1e-9 * np.array([[0, 1], [0, 0]]))


class TestRequire:
    def test_every_verdict_holding_passes(self):
        assert require(np.ones((2, 3), dtype=bool), "never {}", np.zeros((2, 3))) is None
        assert require(np.ones((0,), dtype=bool), "never") is None

    def test_first_failing_instance_over_two_leading_axes(self):
        ok = np.array([[True, True, True], [True, False, False]])
        with pytest.raises(ValueError, match=r"^row 1, col 1: 3\.5$") as exc:
            require(ok, "row {}, col {}: {}", [[0], [1]], np.arange(3), np.arange(6.0).reshape(2, 3) - 0.5)
        # one instance's values come out as Python numbers
        assert "np." not in str(exc.value)

    def test_a_broadcast_value(self):
        # one bound for every instance, and a (2, 1) column against (2, 3) verdicts
        ok = np.array([[True, True, True], [False, True, True]])
        with pytest.raises(ValueError, match="^at most 3, got 7 at 1$"):
            require(ok, "at most {}, got {} at {}", 3, np.array([[5], [7]]), np.array([[0], [1]]))

    def test_a_value_with_trailing_axes_is_the_instance_row(self):
        rows = np.array([[[0.0, 1.0], [2.0, np.inf]], [[np.nan, 0.0], [1.0, 1.0]]])
        with pytest.raises(ValueError, match=r"^bad row \[2\.0, inf\]$"):
            require(np.isfinite(rows).all(axis=-1), "bad row {}", rows)
        with pytest.raises(ValueError, match=r"^bad row \[1\.0, 2\.0\]$"):
            require(False, "bad row {}", [1.0, 2.0])

    def test_error_type(self):
        class Rejected(ValueError):
            pass

        with pytest.raises(Rejected, match="^one instance: -1$"):
            require(np.float64(-1.0) >= 0, "one instance: {:g}", np.float64(-1.0), error=Rejected)


class TestPartialTrace:
    def test_product_reductions(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a + a.conj().T
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = b + b.conj().T
        joint = kron(a, b)
        assert np.allclose(partial_trace(joint, (2, 3), keep=0), a * np.trace(b), atol=1e-12)
        assert np.allclose(partial_trace(joint, (2, 3), keep=1), b * np.trace(a), atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        for keep in (0, 1):
            assert np.trace(partial_trace(m, (2, 3), keep)) == pytest.approx(np.trace(m), abs=1e-12)


def _matrices(rng, shape):
    """Complex matrices of ``shape`` with entries over many magnitudes; in a
    stack, its second matrix holds a NaN, its third +inf and its fourth
    -inf (where it has them)."""
    m = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.exp(rng.uniform(-20, 20, shape))
    flat = m.reshape((-1,) + shape[-2:])
    for row, bad in zip(range(1, len(flat)), (np.nan, np.inf, -np.inf)):
        flat[row, 0, -1] = bad
    return m


# (d, d), (N, d, d), (M, N, d, d) and an empty stack, at d = 1..4 and 16
STACK_SHAPES = [lead + (d, d) for d in (1, 2, 3, 4, 16) for lead in ((), (7,), (3, 5), (0,))]


def _index_order_trace(m):
    """The trace of m, or of each of a stack, summed from 0 in index order."""
    trace = np.zeros(m.shape[:-2], dtype=complex)
    for i in range(m.shape[-1]):
        trace = trace + m[..., i, i]
    return trace


class TestStackMajorReductions:
    """The max over the stack-major layout, and the Hermitian gap read entry
    by entry, give today's numpy expressions bit for bit, NaN and infinite
    entries included; the trace is summed from 0 in index order, the same
    bits for one matrix, a stack of one and a row of a larger stack."""

    @pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
    def test_max_and_hermitian_gap(self, shape):
        m = _matrices(np.random.default_rng(len(shape) * 100 + shape[-1]), shape)
        a = np.abs(m)
        assert same_bits(matrix_max(a), a.max(axis=(-2, -1)))
        with np.errstate(invalid="ignore"):  # inf - inf on a diagonal of d = 1
            gap = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
            assert same_bits(_hermitian_gap(m), gap)

    @pytest.mark.parametrize("shape", STACK_SHAPES, ids=str)
    def test_trace(self, shape):
        m = _matrices(np.random.default_rng(len(shape) * 100 + shape[-1] + 1), shape)
        trace = _trace(m)
        assert same_bits_but_nan_signs(trace, _index_order_trace(m))
        if shape[-1] <= 3:  # numpy sums fewer than 8 parts in index order too
            assert same_bits(trace, m.trace(axis1=-2, axis2=-1))
        for k in np.ndindex(shape[:-2]):
            assert same_bits(_trace(m[k]), trace[k]) and same_bits(_trace(m[k][None]), trace[k][None])

    def test_a_stack_major_copy_is_the_transpose(self):
        # a stack's is a C-contiguous copy; one matrix's is the view one.T
        m = _matrices(np.random.default_rng(3), (3, 5, 2, 2))
        mt = stack_major(m)
        assert mt.flags.c_contiguous and same_bits(mt, m.T)
        one = m[0, 0]
        assert np.shares_memory(stack_major(one), one) and same_bits(stack_major(one), one.T)
        # applied to the layout, it gives the stack back
        assert same_bits(stack_major(mt), m) and same_bits(stack_major(stack_major(one)), one)

    @pytest.mark.parametrize("lead", [(), (1,), (7,), (3, 5)], ids=str)
    @pytest.mark.parametrize("d", [2, 4])
    def test_product_and_adjoint(self, lead, d):
        # a^H b from the layout: numpy's within a few ulps of each entry's
        # scale, and one matrix the bits of its row in a stack
        rng = np.random.default_rng(10 * d + len(lead))
        a, b = (rng.standard_normal(lead + (d, d)) + 1j * rng.standard_normal(lead + (d, d)) for _ in range(2))

        def product(a, b):
            return stack_major(stack_major_product(stack_major_adjoint(stack_major(a)), stack_major(b)))

        ab = product(a, b)
        scale = np.abs(a).swapaxes(-1, -2) @ np.abs(b)
        assert np.all(np.abs(ab - a.conj().swapaxes(-1, -2) @ b) <= 4 * d * np.finfo(float).eps * scale)
        for k in np.ndindex(lead):
            assert same_bits(product(a[k], b[k]), ab[k])


def _stack_major_gap(m):
    """The Hermitian gap as it was taken on the stack-major copy of m."""
    mt = stack_major(m)
    gap = mt.conj()
    gap -= mt.swapaxes(0, 1)
    return np.maximum.reduce(np.abs(gap), axis=(0, 1)).T


QUASI_STATE_MESSAGE = "matrix must be Hermitian with trace 1, got max deviation {:.3e} and trace {:.15g}"
# real and imaginary parts: ordinary values, and the values where a check
# or its message may go its own way
PART = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e300, -1e300]),
)


@st.composite
def quasi_state_stacks(draw):
    """One matrix or a stack at d = 1..4 whose rows are either drawn as they
    are (most not Hermitian, many not finite) or made Hermitian with unit
    trace from what was drawn, so that stacks pass, fail at one row, or
    fail at many."""
    d = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (1,), (6,), (3, 4), (17,)]))
    m = np.empty(lead + (d, d), dtype=complex)
    m.real = draw(arrays(np.float64, m.shape, elements=PART))
    m.imag = draw(arrays(np.float64, m.shape, elements=PART))
    with np.errstate(all="ignore"):
        h = 0.5 * (m + m.conj().swapaxes(-1, -2))
        h += np.eye(d) * ((1.0 - np.trace(h, axis1=-2, axis2=-1)) / d)[..., None, None]
    hermitian = draw(arrays(np.bool_, lead, elements=st.booleans()))
    return np.where(hermitian[..., None, None], h, m)


def _rejection(check) -> str | None:
    try:
        check()
    except ValueError as error:
        return str(error)
    return None


class TestCopyFreeChecks:
    """``QuasiState`` checks a stack on strided views, with no stack-major
    copy: the Hermitian gap is the one the copy gave, the trace is summed in
    index order, and a bad stack is rejected as by those two, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(quasi_state_stacks())
    # a stack of one at d = 4: trace 1 in index order, 0 summed pairwise
    @example(np.diag([1e16, 1.0, -1e16, 1.0]).astype(complex)[None])
    def test_gap_trace_and_rejection_are_the_stack_major_ones(self, m):
        def stack_major_check():
            dev, tr = _stack_major_gap(m), _index_order_trace(m)
            require((dev <= ATOL) & (np.abs(tr - 1.0) <= ATOL), QUASI_STATE_MESSAGE, dev, tr)

        with np.errstate(all="ignore"):
            # bit for bit but for a NaN's sign, which numpy's own loops
            # choose apart; a message prints either sign as nan
            assert same_bits_but_nan_signs(_hermitian_gap(m), _stack_major_gap(m))
            assert same_bits_but_nan_signs(_trace(m), _index_order_trace(m))
            # the first bad row's values, in the same words
            assert _rejection(lambda: QuasiState(m)) == _rejection(stack_major_check)

    def test_one_matrix_is_judged_as_its_row_in_a_stack(self):
        # numpy's pairwise sum of this diagonal is 0; in index order it is 1
        m = np.diag([1e16, 1.0, -1e16, 1.0]).astype(complex)
        for matrix in (m, m[None], np.stack((m, np.eye(4) / 4))):
            assert np.all(_trace(matrix) == 1.0) and _rejection(lambda: QuasiState(matrix)) is None

    def test_a_stack_is_judged_at_its_first_bad_row(self):
        h = np.array([[0.25, 0.5 - 1j], [0.5 + 1j, 0.75]])
        assert _rejection(lambda: QuasiState(np.stack((h, h)))) is None
        message = _rejection(lambda: QuasiState(np.stack((h, h + 1j * np.eye(2)))))
        assert message == "matrix must be Hermitian with trace 1, got max deviation 2.000e+00 and trace 1+2j"


class TestFrozenMatrix:
    """``QuasiState.matrix`` is read-only. A caller's array is copied, so
    a later write to it leaves the state as it was; an array the package
    built and froze is taken as it is."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: rho_z(0.5).tolist(),
            lambda: rho_z(0.5),
            lambda: rho_z(0.5).real,
            lambda: np.stack([rho_z(0.5), rho_z(3.0)]),
            lambda: kron(rho_z(0.5), rho_z(2.0)),
            lambda: to_operator(np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]])).matrix,
        ],
        ids=["list", "writable", "real", "stack", "kron", "to_operator"],
    )
    def test_matrix_is_read_only(self, make):
        matrix = QuasiState(make()).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            matrix[..., 0, 0] = 0.0

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=str)
    def test_a_callers_writable_array_is_copied(self, shape):
        m = np.broadcast_to(rho_z(0.5), shape + (2, 2)).copy()
        state = QuasiState(m)
        assert not np.shares_memory(state.matrix, m)
        m[...] = 7.0
        assert np.all(state.matrix == rho_z(0.5))

    def test_a_read_only_view_of_a_writable_array_is_copied(self):
        base = np.stack([rho_z(0.5), rho_z(2.0)])
        for view in (base[:], np.broadcast_to(base[0], (4, 2, 2))):
            view.setflags(write=False)  # broadcast_to's view is read-only already
            state = QuasiState(view)
            base[0, 0, 0] = 9.0
            assert state.matrix[0, 0, 0] == 0.75
            base[0, 0, 0] = 0.75

    def test_an_array_the_package_built_is_not_copied(self):
        owned = np.array(rho_z(0.5))
        owned.setflags(write=False)
        assert QuasiState(owned).matrix is owned
        joint = kron(rho_z(0.5), rho_z(3.0))  # read-only, and so is the array it views
        assert np.shares_memory(QuasiState(joint).matrix, joint)
        box = build_box(np.array([[0.3, -0.4, 1.2], [0.1, 0.2, 0.3]])).state.matrix
        assert QuasiState(box).matrix is box
        qubits = to_operator(np.array([[0.3, -0.4, 1.2], [0.1, 0.2, 0.3]])).matrix
        assert QuasiState(qubits).matrix is qubits


def _hermitian_2x2(rows) -> np.ndarray:
    """The Hermitian matrices [[a, conj(b)], [b, d]] of rows (a, d, Re b, Im b)."""
    a, d, b = rows[:, 0], rows[:, 1], rows[:, 2] + 1j * rows[:, 3]
    return np.stack((np.stack((a, b.conj()), axis=-1), np.stack((b, d), axis=-1)), axis=-2).astype(complex)


def _assert_spectrum_is_lapacks(m):
    """The closed form within 8 ulps of max(1, largest entry) of LAPACK's
    eigenvalues, each matrix on its own scale. Against a 60-digit reference
    the closed form stays within 2.5 such ulps and LAPACK within 6 (20,000
    random matrices with entries up to 1e8), so the two may part by 8."""
    closed, lapack = hermitian_spectrum(m), np.linalg.eigvalsh(m)
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    assert closed.shape == lapack.shape and np.all(closed[..., 0] <= closed[..., 1])
    ulps = np.abs(closed - lapack) / (np.finfo(float).eps * scale[..., None])
    worst = np.unravel_index(np.argmax(ulps), ulps.shape)[:-1]
    assert np.all(ulps <= 8), (ulps[worst], m[worst], closed[worst], lapack[worst])


# rows (a, d, Re b, Im b) with entries over many magnitudes and signs
ENTRY = st.one_of(st.floats(-1e8, 1e8), st.floats(-1e-8, 1e-8), st.sampled_from([0.0, -0.0, 1.0, 0.5]))
QUBIT_ROWS = arrays(np.float64, st.tuples(st.integers(1, 30), st.just(4)), elements=ENTRY)
NORMALS = arrays(np.float64, (40, 3), elements=st.floats(-3.0, 3.0)).filter(
    lambda v: np.all(np.vecdot(v, v) > 1e-6)
)


class TestQubitSpectrum:
    """At d = 2 the spectrum is the closed form, checked against LAPACK's
    eigvalsh, the reference it replaces."""

    @settings(max_examples=60)
    @given(QUBIT_ROWS)
    def test_against_lapack(self, rows):
        # each drawn matrix, its diagonal part (b = 0), its equal-diagonal
        # form (a = d) and the degenerate a * I
        diagonal, equal = rows.copy(), rows.copy()
        diagonal[:, 2:] = 0.0
        equal[:, 1] = equal[:, 0]
        degenerate = np.where(np.arange(4) < 2, rows[:, :1], 0.0)
        _assert_spectrum_is_lapacks(_hermitian_2x2(np.concatenate((rows, diagonal, equal, degenerate))))

    @settings(max_examples=30)
    @given(NORMALS, st.sampled_from([1.0 - 1e-9, 1.0 + 1e-9, 1e3, 1e6, 1e8]))
    def test_preparations_near_the_unit_sphere_and_far_out(self, normals, norm):
        state = to_operator(scale_directions(normals, norm))
        _assert_spectrum_is_lapacks(state.matrix)
        assert np.array_equal(state.is_positive(), np.linalg.eigvalsh(state.matrix)[:, 0] >= -PSD_ATOL)

    @settings(max_examples=30)
    @given(NORMALS, arrays(np.float64, 40, elements=st.floats(-3 * ATOL, 3 * ATOL)))
    def test_the_band_where_positivity_flips(self, normals, excess):
        # LAPACK's verdict is the closed form's, but within 1e-14 of the flip
        # at 1 + ATOL, where the two may round apart
        state = to_operator(scale_directions(normals, 1.0 + excess))
        _assert_spectrum_is_lapacks(state.matrix)
        apart = state.is_positive() != (np.linalg.eigvalsh(state.matrix)[:, 0] >= -PSD_ATOL)
        assert np.all(np.abs(excess[apart] - ATOL) <= 1e-14)

    @pytest.mark.parametrize("z", [2.0**53 - 1, -(2.0**53 - 1), 2.0**52 + 0.5, 1e15])
    def test_z_just_below_two_to_the_53(self, z):
        rs = np.array([[0.0, 0.0, z], [3.0, -4.0, z], [z / 2, z / 3, z]])
        _assert_spectrum_is_lapacks(to_operator(rs).matrix)

    def test_criterion_3_disagrees_nowhere_at_seeds_0_to_99(self):
        for seed in range(100):
            [check] = acceptance.pc_psd_equivalence_criterion(seed)
            assert check.measured == 0, seed

    def test_other_dimensions_are_lapacks(self):
        m = _matrices(np.random.default_rng(4), (5, 3, 3))[:1]
        m = m + m.conj().swapaxes(-1, -2)
        assert same_bits(hermitian_spectrum(m), np.linalg.eigvalsh(m))


class TestQubitEigensystem:
    """At d = 2 the eigensystem is the closed form, checked against LAPACK's
    eigh, the reference it replaces (``assert_qubit_eigensystem``)."""

    @settings(max_examples=60)
    @given(QUBIT_ROWS)
    def test_against_lapack(self, rows):
        # each drawn matrix, its diagonal part (b = 0, a > d and a < d), its
        # equal-diagonal form (h = 0) and the degenerate a * I (rho = 0)
        diagonal, equal = rows.copy(), rows.copy()
        diagonal[:, 2:] = 0.0
        equal[:, 1] = equal[:, 0]
        degenerate = np.where(np.arange(4) < 2, rows[:, :1], 0.0)
        m = _hermitian_2x2(np.concatenate((rows, diagonal, equal, degenerate)))
        eig = hermitian_eigensystem(m)
        assert_qubit_eigensystem(m, eig)
        # its eigenvalues are hermitian_spectrum's, descending, bit for bit
        assert same_bits(eig.eigenvalues, hermitian_spectrum(m)[..., ::-1])

    @pytest.mark.parametrize(
        "a, d", [(0.7, 0.3), (0.3, 0.7), (1.5, -0.5), (-0.5, 1.5), (0.5, 0.5), (0.0, 0.0)], ids=str
    )
    def test_diagonal_matrices(self, a, d):
        # b = 0: the basis vectors, the larger entry's first; a * I gets
        # LAPACK's e_1 then e_0
        eig = hermitian_eigensystem(np.diag([a, d]).astype(complex))
        first = 0 if a > d else 1
        assert np.allclose(eig.eigenvalues, [max(a, d), min(a, d)], rtol=0.0, atol=1e-15)
        assert np.array_equal(np.abs(eig.eigenvectors), np.eye(2)[:, [first, 1 - first]])
        assert_qubit_eigensystem(np.diag([a, d]), eig)

    @settings(max_examples=30)
    @given(NORMALS, st.sampled_from([0.0, 1e-12, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 3.0, 1e2, MAX_BOX_NORM]))
    def test_preparations_from_the_centre_to_the_largest_box(self, normals, norm):
        m = to_operator(scale_directions(normals, norm)).matrix
        assert_qubit_eigensystem(m, hermitian_eigensystem(m))

    @pytest.mark.parametrize("ratio", [1 - 1e-6, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-6])
    def test_pivots_near_the_cutoff(self, ratio):
        # the second eigenvector's first entry has magnitude about
        # ratio * 1e-8: the rule takes it as the pivot above 1e-8 and the
        # second entry otherwise, and either pivot is real and positive
        phases = np.exp(1j * np.linspace(0.0, 2 * np.pi, 12, endpoint=False))
        b = 2e-8 * ratio * phases  # |g| = |b| / hypot(2h, |b|) at h = 1/2
        m = np.zeros((12, 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 1, 1], m[:, 1, 0], m[:, 0, 1] = 1.0, 0.0, b, b.conj()
        eig = hermitian_eigensystem(m)
        assert_qubit_eigensystem(m, eig)
        pivot_first = np.abs(eig.eigenvectors[:, 0, 1]) > 1e-8
        assert np.array_equal(pivot_first, np.abs(b) / np.hypot(1.0 + np.hypot(0.5, np.abs(b)), np.abs(b)) > 1e-8)

    def test_one_matrix_is_its_row_in_a_stack(self):
        m = to_operator(scale_directions(np.random.default_rng(8).standard_normal((50, 3)), 1.7)).matrix
        stacked = hermitian_eigensystem(m)
        for k in range(len(m)):
            single = hermitian_eigensystem(m[k])
            assert same_bits(single.eigenvalues, stacked.eigenvalues[k])
            assert same_bits(single.eigenvectors, stacked.eigenvectors[k])
