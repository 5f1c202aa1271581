"""Operator substrate: tensor products, trace pairings, eigensystems, and
validation of unit-trace Hermitian (possibly non-positive) matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasilab.operators import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QuasiState,
    expectation,
    hermitian_eigensystem,
    kron,
    partial_trace,
    real_pairing,
    require,
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

    def test_three_level_diagonal(self):
        eig = hermitian_eigensystem(np.diag([0.85, 0.25, -0.1]).astype(complex))
        assert np.allclose(eig.eigenvalues, [0.85, 0.25, -0.1], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigensystem(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_up_to_dim_16(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5, 8, 16):
            for _ in range(10):
                m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                m = m + m.conj().T
                eig = hermitian_eigensystem(m)
                v = eig.eigenvectors
                assert np.max(np.abs((v * eig.eigenvalues) @ v.conj().T - m)) <= 1e-10
                gram = eig.eigenvectors.conj().T @ eig.eigenvectors
                assert np.max(np.abs(gram - np.eye(dim))) <= 1e-10
                assert np.all(np.diff(eig.eigenvalues) <= 1e-12)

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            m = m + m.conj().T
            first = hermitian_eigensystem(m)
            second = hermitian_eigensystem(m)
            assert np.array_equal(first.eigenvectors, second.eigenvectors)
            for k in range(4):
                col = first.eigenvectors[:, k]
                pivot = col[np.flatnonzero(np.abs(col) > 1e-8)[0]]
                assert pivot.real > 0 and abs(pivot.imag) <= 1e-12


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
