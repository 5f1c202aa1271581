"""The benchmark's closed-form oracles against hand values and the paper.

Run with ``python3 -m pytest bench``. Nothing here imports quasilab: the
oracles must stand on their own to be worth checking the program against.
"""

import numpy as np
import pytest

import oracles
from oracles import SQRT2


def partial_trace(m, keep):
    t = np.asarray(m).reshape(2, 2, 2, 2)
    return np.einsum("ijkj->ik", t) if keep == 0 else np.einsum("ijik->jk", t)


def test_pair_product_matches_numpy_kron():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(oracles.pair_product(a, b), np.kron(a, b), atol=1e-15)


class TestChsh:
    def test_quantum_maximum_at_r_one(self):
        assert oracles.chsh(1.0, oracles.TSIRELSON) == pytest.approx(2 * SQRT2, abs=1e-15)

    @pytest.mark.parametrize("r", [0.3, 1.0, 1.2, 1.4142])
    def test_law_below_sqrt2(self, r):
        settings = oracles.chsh_settings(r)
        assert oracles.chsh(r, settings) == pytest.approx(2 * SQRT2 * r, abs=1e-14)
        assert oracles.expected_chsh(r) == pytest.approx(2 * SQRT2 * r, abs=1e-15)

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0, 7e5])
    def test_algebraic_maximum_past_sqrt2(self, r):
        settings = oracles.chsh_settings(r)
        assert oracles.chsh(r, settings) == pytest.approx(4.0, abs=1e-12)
        assert oracles.expected_chsh(r) == 4.0
        for a in settings[:2]:
            for b in settings[2:]:
                table = oracles.joint_table(r, a, b)
                assert table.min() >= -1e-12 and table.max() <= 1 + 1e-12

    def test_tsirelson_settings_past_sqrt2_leave_probability(self):
        r = 2.0
        assert oracles.expected_chsh(r, auto=False) == pytest.approx(4 * SQRT2)
        table = oracles.joint_table(r, oracles.TSIRELSON[1], oracles.TSIRELSON[3])
        assert table.min() < 0

    def test_settings_are_unit_vectors(self):
        for r in (0.5, 1.5, 3.0):
            for v in oracles.chsh_settings(r):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)


class TestBellDiagonalBox:
    def test_r_one_is_phi_plus(self):
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 3] = want[3, 0] = want[3, 3] = 0.5
        assert np.allclose(oracles.bell_diagonal_box(1.0), want, atol=1e-15)

    @pytest.mark.parametrize("r", [0.0, 0.4, 1.0, 1.3, 2.5])
    def test_pauli_expansion(self, r):
        x, y, z = oracles.PAULI
        pp = oracles.pair_product
        want = 0.25 * (np.eye(4) + r * (pp(x, x) - pp(y, y)) + pp(z, z))
        assert np.allclose(oracles.bell_diagonal_box(r), want, atol=1e-15)

    @pytest.mark.parametrize("r", [0.4, 1.0, 2.5])
    def test_spectrum_trace_and_marginals(self, r):
        box = oracles.bell_diagonal_box(r)
        assert np.allclose(np.linalg.eigvalsh(box)[::-1], oracles.box_eigenvalues(r), atol=1e-14)
        assert np.trace(box).real == pytest.approx(1.0)
        for keep in (0, 1):
            assert np.allclose(partial_trace(box, keep), np.eye(2) / 2, atol=1e-15)

    def test_eigenvalue_hand_values(self):
        assert np.allclose(oracles.box_eigenvalues(2.0), [1.5, 0.0, 0.0, -0.5])
        assert np.allclose(oracles.box_eigenvalues(0.5), [0.75, 0.25, 0.0, 0.0])

    @pytest.mark.parametrize("r", [0.7, 1.2, 2.0])
    def test_joint_table_is_the_trace_rule_on_the_box(self, r):
        box = oracles.bell_diagonal_box(r)
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
            proj_a = [oracles.bloch_operator(s * a) for s in (1, -1)]
            proj_b = [oracles.bloch_operator(s * b) for s in (1, -1)]
            table = np.array([[np.trace(oracles.pair_product(pa, pb) @ box).real for pb in proj_b] for pa in proj_a])
            assert np.allclose(table, oracles.joint_table(r, a, b), atol=1e-14)
            assert np.allclose(table.sum(0), 0.5) and np.allclose(table.sum(1), 0.5)


class TestClone:
    def test_hand_value(self):
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.allclose(oracles.clone_target([0, 0, 1]), want)

    def test_is_rho_tensor_rho(self):
        r = np.array([0.3, -0.2, 0.5])
        rho = 0.5 * np.array([[1 + r[2], r[0] - 1j * r[1]], [r[0] + 1j * r[1], 1 - r[2]]])
        assert np.allclose(oracles.clone_target(r), np.kron(rho, rho), atol=1e-15)

    def test_fidelity_is_squared_purity(self):
        r = np.array([0.3, -0.2, 0.5])
        clone = oracles.clone_target(r)
        assert np.trace(clone @ clone).real == pytest.approx(oracles.purity(r) ** 2)
        assert oracles.purity(r) == pytest.approx(0.5 * (1 + 0.38))


def test_plane_overlap_from_the_plane_states():
    norm, y, z = 2.0, 0.6, 0.0
    r_hat = np.array([0.0, 0.0, 1.0])
    m = np.array([1.0, 0.0, 0.0])
    r_plus = r_hat / norm + y * m
    r_minus = -r_hat / norm + y * m
    assert oracles.plane_overlap(norm, y, z) == pytest.approx(0.5 * (1 + r_plus @ r_minus))
    assert oracles.plane_overlap(norm, y, z) == pytest.approx(0.555)


class TestDoubledBasis:
    def test_probe_weight_hand_values(self):
        assert oracles.probe_weights(3, 0.5, 1)[0] == pytest.approx(5 / 7)
        assert oracles.probe_weights(3, 0.5, 0)[0] == pytest.approx(1 / 7)
        for target in (0, 1):
            assert oracles.probe_weights(5, 1.3, target).sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_pinned_weights_give_one_and_zero(self, dim):
        rng = np.random.default_rng(dim)
        basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        epsilon = 0.7
        tail = -epsilon * rng.dirichlet(np.ones(dim - 1))
        rho = (basis * np.concatenate(([1 + epsilon], tail))) @ basis.conj().T
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=dim))
        for target in (0, 1):
            phi = basis @ (np.sqrt(oracles.probe_weights(dim, epsilon, target)) * phases)
            assert oracles.q1_doubled_basis(basis, rho, phi) == pytest.approx(target, abs=1e-13)

    def test_equals_the_dense_projector(self):
        dim = 3
        rng = np.random.default_rng(5)
        basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = h + h.conj().T
        phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        phi /= np.linalg.norm(phi)
        doubled = [np.kron(basis[:, j], basis[:, j]) for j in range(dim)]
        p1 = sum(np.outer(v, v.conj()) for v in doubled)
        dense = np.trace(p1 @ np.kron(rho, np.outer(phi, phi.conj()))).real
        assert oracles.q1_doubled_basis(basis, rho, phi) == pytest.approx(dense, abs=1e-12)

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 2.0])
    def test_qubit_discrimination_formula_at_d2(self, epsilon):
        # d = 2 along z: rho = (I + r.sigma)/2 with r = (0, 0, 1 + 2 eps), and a
        # probe with weights (a, 1 - a) has Bloch z-component 2a - 1. The
        # qubit measurement detects it with q+ = (1 + r.h)/2.
        norm = 1 + 2 * epsilon
        rho = oracles.bloch_operator([0, 0, norm])
        basis = np.eye(2, dtype=complex)
        for a in (0.0, 0.3, oracles.probe_weights(2, epsilon, 0)[0], oracles.probe_weights(2, epsilon, 1)[0], 1.0):
            phi = np.array([np.sqrt(a), np.sqrt(1 - a) * np.exp(0.7j)])
            qubit = 0.5 * (1 + norm * (2 * a - 1))
            assert oracles.q1_doubled_basis(basis, rho, phi) == pytest.approx(qubit, abs=1e-14)
        h_plus = 2 * oracles.probe_weights(2, epsilon, 1)[0] - 1
        assert h_plus == pytest.approx(1 / norm)
