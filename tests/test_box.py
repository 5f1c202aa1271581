"""Bipartite box pipeline, CHSH evaluation, joint tables, non-signalling.

Correlators are cross-checked against the closed tensor form
E(a, b) = r (a_x b_x - a_y b_y) + a_z b_z of the Bell-diagonal box, worked
out by hand from the two Bell-state correlation tensors; joint tables
against p(x, y) = (1 + x y E)/4.
"""

import numpy as np
import pytest

from helpers import random_direction, same_bits
from quasilab import nonlocal_box
from quasilab.bloch import along_z, random_bloch_vector, to_operator
from quasilab.nonlocal_box import (
    PHI_PLUS,
    TSIRELSON_SETTINGS,
    BipartiteBox,
    ChshSettings,
    JointDistribution,
    basis_to_computational,
    bell_operator,
    build_box,
    chsh_settings_for,
    chsh_value,
    closed_form_box,
    joint_distribution,
    rotated_cnot,
    setting_tables,
    signalling_deviation,
)
from quasilab.operators import ATOL, I2, SIGMA_Z, QuasiState, expectation, hermitian_eigensystem, kron, partial_trace

SQRT2 = np.sqrt(2.0)
X, Y, Z = np.eye(3)


def correlator_oracle(r_norm, a, b):
    return r_norm * (a[0] * b[0] - a[1] * b[1]) + a[2] * b[2]


def table_oracle(r_norm, a, b):
    e = correlator_oracle(r_norm, a, b)
    return np.array([[1 + e, 1 - e], [1 - e, 1 + e]]) / 4.0


def chsh_oracle(r_norm, s):
    return (
        correlator_oracle(r_norm, s.a1, s.b1)
        + correlator_oracle(r_norm, s.a1, s.b2)
        + correlator_oracle(r_norm, s.a2, s.b1)
        - correlator_oracle(r_norm, s.a2, s.b2)
    )


def random_settings(rng):
    return ChshSettings(*(random_direction(rng) for _ in range(4)))


class TestBuildBox:
    def test_pure_bell_at_unit_norm(self):
        box = build_box(Z)
        assert np.max(np.abs(box.state.matrix - np.outer(PHI_PLUS, PHI_PLUS.conj()))) <= 1e-12

    def test_equal_mixture_at_zero(self):
        box = build_box(np.zeros(3))
        assert np.allclose(box.state.matrix, np.diag([0.5, 0, 0, 0.5]), atol=1e-12)

    def test_eigenvalues_beyond_unit_norm(self):
        box = build_box(np.array([0.0, 0.0, 1.2]))
        eigs = np.sort(np.linalg.eigvalsh(box.state.matrix))[::-1]
        assert np.allclose(eigs, [1.1, 0.0, 0.0, -0.1], atol=1e-12)

    def test_matches_closed_form_for_random_sources(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = random_bloch_vector(rng, 0.0, 3.0)
            box = build_box(r)
            assert np.max(np.abs(box.state.matrix - closed_form_box(box.r))) <= 1e-10

    def test_closed_form_dev_is_the_measured_deviation(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            box = build_box(random_bloch_vector(rng, 0.0, 3.0))
            assert box.closed_form_dev == np.max(np.abs(box.state.matrix - closed_form_box(box.r)))

    def test_one_eigendecomposition_per_box(self, count_calls, calls_to):
        eigensystems = calls_to(nonlocal_box, ["hermitian_eigensystem"])
        with count_calls() as calls:
            build_box(np.array([0.3, -0.4, 1.1]))
        # the source's eigenbasis, in closed form at d = 2: no LAPACK call;
        # QuasiState computes no spectrum unless read
        assert eigensystems["hermitian_eigensystem"] == 1
        assert (calls["eigh"], calls["eigvalsh"]) == (0, 0)

    def test_depends_only_on_norm(self):
        rng = np.random.default_rng(2)
        reference = build_box(1.3 * Z).state.matrix
        for _ in range(10):
            other = build_box(1.3 * random_direction(rng)).state.matrix
            assert np.max(np.abs(other - reference)) <= 1e-9

    def test_reductions_are_maximally_mixed(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            box = build_box(random_bloch_vector(rng, 0.0, 3.0))
            for side in (0, 1):
                red = partial_trace(box.state.matrix, (2, 2), keep=side)
                assert np.max(np.abs(red - I2 / 2)) <= 1e-10

    def test_unitaries_are_unitary(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            r = random_bloch_vector(rng, 1.0 + 1e-9, 3.0)
            assert build_box(r).unitarity_dev <= ATOL

    def test_unitarity_dev_is_measured(self, non_unitary_gates):
        box = build_box(1.3 * Z)
        assert box.unitarity_dev == pytest.approx(3.0)  # |2^2 - 1| on the local basis change
        assert box.closed_form_dev <= 1e-10

    def test_rotated_cnot_flips_target(self):
        u = rotated_cnot(np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
        plus = np.array([1, 1], dtype=complex) / SQRT2
        minus = np.array([1, -1], dtype=complex) / SQRT2
        assert np.allclose(u @ kron(np.outer(minus, minus.conj()), np.outer(plus, plus.conj())) @ u.conj().T,
                           kron(np.outer(minus, minus.conj()), np.outer(minus, minus.conj())), atol=1e-12)

    def test_basis_change_rows_are_the_rotated_bras(self):
        # the eigenbases the pipeline reads, of random sources and of the poles
        rs = np.concatenate((random_bloch_vector(np.random.default_rng(6), np.zeros(200), 3.0), np.eye(3), -np.eye(3)))
        vecs = hermitian_eigensystem(to_operator(rs).matrix)
        xi, xi_perp = vecs[..., 0], vecs[..., 1]
        gates = basis_to_computational(xi, xi_perp)
        assert same_bits(gates[:, 0], (xi + xi_perp).conj() / SQRT2)  # <+|
        assert same_bits(gates[:, 1], (xi - xi_perp).conj() / SQRT2)  # <-|
        kets = np.stack(((xi + xi_perp) / SQRT2, (xi - xi_perp) / SQRT2), axis=-1)
        assert np.max(np.abs(gates @ kets - I2)) <= ATOL  # |+> -> |0> and |-> -> |1>
        for k in (0, 57, 199, 200, 205):
            assert same_bits(basis_to_computational(xi[k], xi_perp[k]), gates[k])

    def test_basis_change_of_the_computational_pair_is_hadamard(self):
        gate = basis_to_computational(np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex))
        assert same_bits(gate, np.array([[1, 1], [1, -1]], dtype=complex).conj() / SQRT2)

    def test_rejects_non_mixed_reductions(self):
        with pytest.raises(ValueError, match="maximally mixed"):
            BipartiteBox(
                state=QuasiState(np.diag([1.0, 0, 0, 0]).astype(complex)), r=1.0, closed_form_dev=0.0, unitarity_dev=0.0
            )


class TestBellOperator:
    def test_tsirelson_value_on_bell_state(self):
        op = bell_operator(TSIRELSON_SETTINGS)
        value = expectation(op, np.outer(PHI_PLUS, PHI_PLUS.conj()))
        assert value == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_degenerate_settings(self):
        s = ChshSettings(Z, Z, Z, Z)
        assert np.allclose(bell_operator(s), 2 * kron(SIGMA_Z, SIGMA_Z))
        assert np.allclose(np.sort(np.linalg.eigvalsh(bell_operator(s))), [-2, -2, 2, 2])

    def test_spectral_norm_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            eigs = np.linalg.eigvalsh(bell_operator(random_settings(rng)))
            assert np.max(np.abs(eigs)) <= 2 * SQRT2 + 1e-9

    def test_rejects_non_unit_setting(self):
        with pytest.raises(ValueError, match="unit"):
            ChshSettings(2 * Z, Z, Z, Z)


class TestChshSettingsFor:
    def test_low_branch_is_tsirelson(self):
        s = chsh_settings_for(1.0)
        assert np.allclose(s.a1, [1 / SQRT2, 1 / SQRT2, 0])
        assert np.allclose(s.a2, [1 / SQRT2, -1 / SQRT2, 0])
        assert np.allclose(s.b1, X) and np.allclose(s.b2, -Y)

    def test_high_branch_tilts_out_of_plane(self):
        for r in (1.5, 2.0, 3.0):
            s = chsh_settings_for(r)
            tilt = np.sqrt(r * r - 2) / r
            assert np.allclose(s.b1, [SQRT2 / r, 0, tilt], atol=1e-15)
            assert np.allclose(s.b2, [0, -SQRT2 / r, tilt], atol=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chsh_settings_for(0.0)


class TestChshValue:
    def test_quantum_maximum_at_unit_norm(self):
        box = build_box(Z)
        assert chsh_value(box, chsh_settings_for(1.0)) == pytest.approx(2 * SQRT2, abs=1e-10)

    def test_branch_endpoint(self):
        box = build_box(SQRT2 * Z)
        assert chsh_value(box, chsh_settings_for(SQRT2)) == pytest.approx(4.0, abs=1e-10)

    def test_zero_source_with_implemented_families(self):
        # every implemented family keeps the sender axes equatorial, and the
        # r = 0 box carries no equatorial correlations
        box = build_box(np.zeros(3))
        for s in (TSIRELSON_SETTINGS, chsh_settings_for(1.7), chsh_settings_for(3.0)):
            assert chsh_value(box, s) == pytest.approx(0.0, abs=1e-10)

    def test_piecewise_law(self):
        for r in (1.01, 1.2, 1.41, SQRT2):
            box = build_box(r * Z)
            assert chsh_value(box, chsh_settings_for(r)) == pytest.approx(2 * SQRT2 * r, abs=1e-9)
        for r in (1.5, 2.0, 2.5, 3.0):
            box = build_box(r * Z)
            assert chsh_value(box, chsh_settings_for(r)) == pytest.approx(4.0, abs=1e-9)
            assert setting_tables(box, chsh_settings_for(r)).valid.all()

    def test_against_tensor_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            box = build_box(random_bloch_vector(rng, 0.0, 3.0))
            s = random_settings(rng)
            assert chsh_value(box, s) == pytest.approx(chsh_oracle(box.r, s), abs=1e-10)

    def test_quantum_region_never_beats_tsirelson(self):
        rng = np.random.default_rng(7)
        families = [TSIRELSON_SETTINGS] + [chsh_settings_for(s) for s in (0.5, 1.0, 1.2, SQRT2, 2.0, 3.0)]
        for norm in (0.0, 0.3, 0.7, 1.0):
            box = build_box(norm * random_direction(rng))
            values = [chsh_value(box, s) for s in families]
            values += [chsh_value(box, random_settings(rng)) for _ in range(20)]
            assert max(values) <= 2 * SQRT2 + 1e-9


class TestJointDistribution:
    def test_bell_correlations_along_z(self):
        table = joint_distribution(build_box(Z), Z, Z)
        assert np.allclose(table.table, [[0.5, 0], [0, 0.5]], atol=1e-12)
        assert table.valid
        assert table.table[0, 0] == pytest.approx(0.5, abs=1e-12)  # p(+1, +1)

    def test_negative_quasiprobability_signature(self):
        # the doubled box carries the source norm on the x (x) x correlator,
        # so beyond norm 1 that table leaves [0, 1]
        table = joint_distribution(build_box(1.2 * Z), X, X)
        assert np.allclose(table.table, [[0.55, -0.05], [-0.05, 0.55]], atol=1e-12)
        assert not table.valid

    def test_maximal_box_tables_are_half_or_zero(self):
        box = build_box(2.0 * Z)
        tables = setting_tables(box, chsh_settings_for(2.0))
        assert tables.valid.shape == (2, 2) and tables.valid.all()
        assert tables.table.shape == (2, 2, 2, 2)
        for entry in tables.table.ravel():
            assert min(abs(entry), abs(entry - 0.5)) <= 1e-12

    def test_against_table_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            box = build_box(random_bloch_vector(rng, 0.0, 3.0))
            a, b = random_direction(rng), random_direction(rng)
            table = joint_distribution(box, a, b)
            assert np.max(np.abs(table.table - table_oracle(box.r, a, b))) <= 1e-12
            assert np.allclose(table.table.sum(-1), [0.5, 0.5], atol=1e-12)  # p(x)
            assert np.allclose(table.table.sum(-2), [0.5, 0.5], atol=1e-12)  # p(y)

    def test_setting_tables_are_indexed_by_setting_pair(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            box, s = build_box(random_bloch_vector(rng, 0.0, 3.0)), random_settings(rng)
            tables = setting_tables(box, s)
            for i, a in enumerate((s.a1, s.a2)):
                for j, b in enumerate((s.b1, s.b2)):
                    single = joint_distribution(box, a, b)
                    assert tables.table[i, j].tobytes() == single.table.tobytes()
                    assert tables.valid[i, j] == single.valid

    def test_one_setting_broadcasts_against_a_stack_of_boxes(self):
        # the shape rule: one setting, or one pair of directions, serves every
        # box of a stack, as the same setting stacked once per box does
        boxes = build_box(along_z([1.0, 2.0]))
        s = TSIRELSON_SETTINGS
        stacked = ChshSettings(*(np.stack((v, v)) for v in (s.a1, s.a2, s.b1, s.b2)))
        for broadcast, explicit in (
            (setting_tables(boxes, s), setting_tables(boxes, stacked)),
            (joint_distribution(boxes, Z, Z), joint_distribution(boxes, np.stack((Z, Z)), np.stack((Z, Z)))),
        ):
            assert broadcast.table.shape == explicit.table.shape
            assert broadcast.table.tobytes() == explicit.table.tobytes()
            assert np.array_equal(broadcast.valid, explicit.valid)

    def test_table_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1, got 0.9"):
            JointDistribution(table=np.array([[0.5, 0.0], [0.0, 0.4]]), valid=True)
        stack = np.array([[[0.5, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.4]]])
        with pytest.raises(ValueError, match="sum to 1, got 0.9"):
            JointDistribution(table=stack, valid=np.ones(2, dtype=bool))


class TestNonsignalling:
    def test_boxes_with_matched_settings(self):
        for r in (1.0, 1.2, 2.0):
            box = build_box(r * Z)
            assert signalling_deviation(setting_tables(box, chsh_settings_for(r))) <= ATOL

    def test_box_with_arbitrary_settings(self):
        rng = np.random.default_rng(9)
        box = build_box(1.5 * random_direction(rng))
        for _ in range(20):
            assert signalling_deviation(setting_tables(box, random_settings(rng))) <= ATOL

    def test_hand_built_signalling_table(self):
        determined = np.array([[1.0, 0.0], [0.0, 0.0]])
        flipped = np.array([[0.0, 0.0], [0.0, 1.0]])
        # the pair (a1, b2) flips both outcomes: each party's marginal then
        # depends on the other party's setting
        table = np.array([[determined, flipped], [determined, determined]])
        tables = JointDistribution(table=table, valid=np.ones((2, 2), dtype=bool))
        assert signalling_deviation(tables) == 1.0
