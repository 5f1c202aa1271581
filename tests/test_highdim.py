"""d-dimensional violating states, pinned probe families, the doubled-basis
projector, and perfect discrimination beyond qubits."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import random_tail
from quasilab.bloch import pc_check, random_bloch_vector, to_operator
from quasilab.discrimination import discriminate, discrimination_povm
from quasilab.highdim import (
    CERTAIN,
    NULL,
    ProbeState,
    build_probe_state,
    build_violating_state,
    detection_probability,
    discriminate_highdim,
    entangled_projector,
    probe_magnitudes,
    violates_pc,
)
from quasilab.acceptance import matched_qubit_instance
from quasilab.operators import ATOL, SPECTRAL_ATOL, QuasiState, expectation, kron


def random_basis(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return np.linalg.qr(m)[0]


def pinned_value_oracle(spectrum, magnitudes):
    # quadratic form reduces to the spectrum-weighted magnitudes
    return float(np.dot(spectrum, magnitudes))


class TestBuildViolatingState:
    def test_dim_two_matches_bloch_picture(self):
        vs = build_violating_state(2, 0.5)
        assert np.allclose(vs.spectrum, [1.5, -0.5])
        assert np.max(np.abs(vs.state.matrix - to_operator([0, 0, 2.0]).matrix)) <= 1e-15

    def test_uniform_tail(self):
        vs = build_violating_state(3, 0.5)
        assert np.allclose(vs.spectrum, [1.5, -0.25, -0.25])

    def test_custom_tail_accepted(self):
        vs = build_violating_state(3, 0.5, lambdas=[0.25, -0.75])
        assert np.allclose(vs.spectrum, [1.5, 0.25, -0.75])

    def test_tail_sum_constraint(self):
        with pytest.raises(ValueError, match="sum to -epsilon"):
            build_violating_state(3, 0.5, lambdas=[0.25, -0.5])

    def test_tail_cannot_exceed_leading(self):
        with pytest.raises(ValueError, match="leading"):
            build_violating_state(3, 0.5, lambdas=[2.0, -2.5])

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="positive"):
            build_violating_state(3, 0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    def test_rejects_non_finite_epsilon_without_warning(self, epsilon):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build_violating_state(3, epsilon)

    @pytest.mark.parametrize("tail", [[float("nan"), float("nan")], [float("inf"), -float("inf")]])
    def test_rejects_non_finite_tail_without_warning(self, tail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="tail spectrum must be finite"):
                build_violating_state(3, 0.5, lambdas=tail)

    def test_random_basis_state_is_valid(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5):
            vs = build_violating_state(dim, 0.7, basis=random_basis(rng, dim))
            assert np.trace(vs.state.matrix).real == pytest.approx(1.0, abs=1e-12)
            eigs = np.sort(np.linalg.eigvalsh(vs.state.matrix))[::-1]
            assert eigs[0] == pytest.approx(1.7, abs=1e-12)


class TestEigenbasisDiagonal:
    def test_equals_the_spectrum(self):
        rng = np.random.default_rng(9)
        for dim in range(2, 9):
            for epsilon in (0.1, 2.0, 5e2):
                vs = build_violating_state(
                    dim, epsilon, lambdas=random_tail(rng, dim, epsilon), basis=random_basis(rng, dim)
                )
                assert np.max(np.abs(vs.diag - vs.spectrum)) <= SPECTRAL_ATOL

    def test_replace_recomputes_it(self):
        vs = build_violating_state(3, 0.5, basis=random_basis(np.random.default_rng(10), 3))
        other = build_violating_state(3, 2.0, lambdas=[0.25, -2.25], basis=vs.basis)
        moved = replace(vs, state=other.state)
        assert np.array_equal(moved.diag, other.diag)
        assert not np.allclose(moved.diag, vs.diag)


class TestProbeMagnitudes:
    def test_closed_form_instance(self):
        certain = probe_magnitudes(3, 0.5, CERTAIN)
        assert certain[0] == 5.0 / 7.0
        assert np.allclose(certain[1:], 1.0 / 7.0)
        null = probe_magnitudes(3, 0.5, NULL)
        assert null[0] == 1.0 / 7.0
        assert np.allclose(null[1:], 3.0 / 7.0)

    def test_magnitudes_normalized(self):
        for d in (2, 4, 6):
            for eps in (0.1, 1.0, 2.0):
                for target in (CERTAIN, NULL):
                    assert probe_magnitudes(d, eps, target).sum() == pytest.approx(1.0, abs=1e-12)

    def test_large_epsilon_limit(self):
        # (eps+1)/(2 eps+1) -> 1/2 from above
        values = [probe_magnitudes(2, eps, CERTAIN)[0] for eps in (1e2, 1e4, 1e8)]
        assert values[0] > values[1] > values[2] > 0.5
        assert abs(values[-1] - 0.5) <= 1e-8

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError, match="target"):
            probe_magnitudes(3, 0.5, 2)


class TestProbeStates:
    def test_pinned_values(self):
        vs = build_violating_state(3, 0.5)
        certain = build_probe_state(vs, CERTAIN)
        null = build_probe_state(vs, NULL)
        for probe, target in ((certain, 1.0), (null, 0.0)):
            form = float(np.real(probe.vector.conj() @ vs.state.matrix @ probe.vector))
            assert form == pytest.approx(target, abs=1e-12)
            assert np.linalg.norm(probe.vector) == pytest.approx(1.0, abs=1e-12)

    def test_oracle_needs_only_magnitudes(self):
        rng = np.random.default_rng(1)
        for dim in (2, 3, 4, 5, 6):
            for eps in (0.1, 0.5, 1.0, 2.0):
                vs = build_violating_state(dim, eps, basis=random_basis(rng, dim))
                for target in (CERTAIN, NULL):
                    phases = rng.uniform(0, 2 * np.pi, size=dim)
                    probe = build_probe_state(vs, target, phases=phases)
                    form = float(np.real(probe.vector.conj() @ vs.state.matrix @ probe.vector))
                    assert abs(form - pinned_value_oracle(vs.spectrum, probe.magnitudes_sq)) <= 1e-12
                    assert abs(form - target) <= 1e-12

    def test_probe_overlap_closed_form(self):
        vs = build_violating_state(3, 0.5)
        certain = build_probe_state(vs, CERTAIN)
        null = build_probe_state(vs, NULL)
        value = abs(np.vdot(certain.vector, null.vector))
        assert value == pytest.approx((np.sqrt(5) + 2 * np.sqrt(3)) / 7.0, abs=1e-14)

    def test_default_instances_stay_nonorthogonal(self):
        # the discriminated families never become orthogonal, and are far
        # from it once the violation is appreciable
        for dim in (2, 3, 4, 5, 6):
            for eps in (0.1, 0.5, 1.0, 2.0):
                vs = build_violating_state(dim, eps)
                certain = build_probe_state(vs, CERTAIN)
                null = build_probe_state(vs, NULL)
                value = abs(np.vdot(certain.vector, null.vector))
                assert value > 0.0
                if eps >= 0.5:
                    assert value > 0.5

    def test_pinning_dev_is_the_measured_deviation(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 5):
            vs = build_violating_state(dim, 0.7, basis=random_basis(rng, dim))
            for target in (CERTAIN, NULL):
                probe = build_probe_state(vs, target, phases=rng.uniform(0, 2 * np.pi, size=dim))
                form = float(np.real(probe.vector.conj() @ vs.state.matrix @ probe.vector))
                assert probe.pinning_dev == abs(form - target)

    def test_unpinned_probe_reports_its_deviation(self):
        # at epsilon = 1e8 rounding leaves the quadratic form ~4e-9 off 1:
        # the probe carries that deviation for the reports to judge
        probe = build_probe_state(build_violating_state(3, 1e8), CERTAIN)
        assert probe.pinning_dev > ATOL

    def test_wrong_phase_count_rejected(self):
        vs = build_violating_state(3, 0.5)
        with pytest.raises(ValueError, match="phases"):
            build_probe_state(vs, CERTAIN, phases=[0.0, 0.0])


class TestEntangledProjector:
    def test_dim_two_matches_qubit_povm(self):
        vs = build_violating_state(2, 0.5)
        p1, _ = entangled_projector(vs)
        povm = discrimination_povm(np.array([0.0, 0.0, 2.0]))
        assert np.max(np.abs(p1 - povm.p_plus)) <= 1e-12
        assert np.max(np.abs(np.eye(4) - p1 - povm.p_minus)) <= 1e-12
        assert np.allclose(p1, np.diag([1, 0, 0, 1]))

    def test_rank_and_idempotence(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 4, 5):
            vs = build_violating_state(dim, 0.3, basis=random_basis(rng, dim))
            p1, _ = entangled_projector(vs)
            assert np.max(np.abs(p1 @ p1 - p1)) <= 1e-10
            assert np.trace(p1).real == pytest.approx(dim, abs=1e-10)

    def test_fourier_sum_equals_diagonal_sum(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 5, 6):
            vs = build_violating_state(dim, 1.0, basis=random_basis(rng, dim))
            p1, _ = entangled_projector(vs)
            oracle = sum(
                np.outer(kron(vs.basis[:, j : j + 1], vs.basis[:, j : j + 1]).ravel(),
                         kron(vs.basis[:, j : j + 1], vs.basis[:, j : j + 1]).ravel().conj())
                for j in range(dim)
            )
            assert np.max(np.abs(p1 - oracle)) <= 1e-10

    def test_returned_deviation_is_the_measured_one(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 6):
            vs = build_violating_state(dim, 0.4, basis=random_basis(rng, dim))
            p1, dev = entangled_projector(vs)
            # sum_j |psi_j psi_j><psi_j psi_j| as one product of the stacked doubled vectors
            doubled = np.stack([np.kron(vs.basis[:, j], vs.basis[:, j]) for j in range(dim)])
            assert dev == np.max(np.abs(p1 - doubled.T @ doubled.conj()))


class TestDiscriminateHighdim:
    def test_labels_recovered(self):
        vs = build_violating_state(3, 0.5)
        assert discriminate_highdim(vs, CERTAIN, build_probe_state(vs, CERTAIN)) == CERTAIN
        assert discriminate_highdim(vs, NULL, build_probe_state(vs, NULL)) == NULL

    def test_detection_equals_pinned_value(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3, 4):
            vs = build_violating_state(dim, 0.8, basis=random_basis(rng, dim))
            for target in (CERTAIN, NULL):
                probe = build_probe_state(vs, target, phases=rng.uniform(0, 2 * np.pi, dim))
                q1 = detection_probability(vs, probe)
                assert abs(q1 - pinned_value_oracle(vs.spectrum, probe.magnitudes_sq)) <= 1e-10
                assert discriminate_highdim(vs, target, probe=probe) == target

    def test_mismatched_probe_rejected(self):
        vs = build_violating_state(3, 0.5)
        probe = build_probe_state(vs, CERTAIN)
        with pytest.raises(ValueError, match="target"):
            discriminate_highdim(vs, NULL, probe=probe)

    def test_broken_instance_detected(self):
        # probe built for one instance measured against another: q1 leaves {0, 1}
        probe = build_probe_state(build_violating_state(3, 0.5), CERTAIN)
        q1 = detection_probability(build_violating_state(3, 2.0), probe)
        assert abs(q1) > SPECTRAL_ATOL and abs(q1 - 1.0) > SPECTRAL_ATOL

    def test_nan_probe_rejected(self):
        # a hand-built probe skips build_probe_state's checks; its NaN
        # detection probability raises instead of reading as the null label
        vs = build_violating_state(3, 0.5)
        mags = build_probe_state(vs, CERTAIN).magnitudes_sq
        probe = ProbeState(mags, np.full(3, np.nan, dtype=complex), CERTAIN, 0.0)
        with pytest.raises(ValueError, match="not finite"):
            discriminate_highdim(vs, CERTAIN, probe=probe)

    def test_qubit_machinery_agrees_at_dim_two(self):
        for epsilon in (0.1, 0.5, 1.0, 2.0):
            _, pair = matched_qubit_instance(epsilon)
            vs = build_violating_state(2, epsilon)
            q_plus = discriminate(pair, +1)[1]
            q1 = detection_probability(vs, build_probe_state(vs, CERTAIN))
            assert abs(q_plus - q1) <= 1e-10
            q_minus = discriminate(pair, -1)[2]
            q0 = 1.0 - detection_probability(vs, build_probe_state(vs, NULL))
            assert abs(q_minus - q0) <= 1e-10


def random_probe(rng, vs):
    # an arbitrary unit vector: its q1 is neither pinned at 0 nor at 1
    v = rng.normal(size=vs.dim) + 1j * rng.normal(size=vs.dim)
    v /= np.linalg.norm(v)
    return ProbeState(np.abs(vs.basis.conj().T @ v) ** 2, v, CERTAIN, float("nan"))


class TestStructuredDetection:
    def test_matches_dense_projector_pairing(self):
        rng = np.random.default_rng(8)
        for dim in range(2, 17):
            for epsilon in (0.1, 1.0, 2.0):
                vs = build_violating_state(
                    dim, epsilon, lambdas=random_tail(rng, dim, epsilon), basis=random_basis(rng, dim)
                )
                p1, _ = entangled_projector(vs)
                phases = rng.uniform(0, 2 * np.pi, size=dim)
                probes = [build_probe_state(vs, t, phases=phases) for t in (CERTAIN, NULL)]
                probes += [random_probe(rng, vs) for _ in range(2)]
                for probe in probes:
                    dense = expectation(p1, kron(vs.state.matrix, np.outer(probe.vector, probe.vector.conj())))
                    assert abs(detection_probability(vs, probe) - dense) <= SPECTRAL_ATOL

    def test_imaginary_residue_raises(self):
        vs = build_violating_state(3, 0.5)
        skew = vs.state.matrix + 1e-6j * np.diag([1.0, 0.0, 0.0])  # anti-Hermitian part
        state = object.__new__(QuasiState)  # skips the Hermiticity check on purpose
        object.__setattr__(state, "matrix", skew)
        probe = build_probe_state(vs, CERTAIN, phases=[0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="imaginary residue"):
            detection_probability(replace(vs, state=state), probe)


class TestViolationClassification:
    def test_three_level_example_satisfies(self):
        rho = np.diag([0.85, 0.25, -0.1]).astype(complex)
        assert not violates_pc(rho)
        # no projective direction comes close to certainty
        rng = np.random.default_rng(5)
        kets = rng.normal(size=(100_000, 3)) + 1j * rng.normal(size=(100_000, 3))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        forms = np.einsum("ki,ij,kj->k", kets.conj(), rho, kets).real
        assert forms.max() <= 1.0 - 1e-9

    def test_reduces_to_qubit_norm_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            r = random_bloch_vector(rng, 0.0, 3.0)
            assert violates_pc(to_operator(r)) == (not pc_check(r).satisfied)
        # on the z axis inside the band 1e-12 < |r| - 1 <= 2e-12, where an
        # eigenvalue bound of ATOL instead of PSD_ATOL flips late
        for excess in (-5e-13, 5e-13, 1.5e-12, 3e-12):
            r = np.array([0.0, 0.0, 1.0 + excess])
            assert violates_pc(to_operator(r)) == (not pc_check(r).satisfied) == (excess > ATOL)

    def test_violating_state_flag(self):
        assert violates_pc(build_violating_state(4, 0.2).state)
