"""Joint-clonability condition, hyperplane state pairs, deterministic
discrimination of non-orthogonal states, and the cloning protocol."""

import gc
import weakref

import numpy as np
import pytest

from helpers import random_direction
from quasilab import discrimination
from quasilab.bloch import random_bloch_vector, to_operator
from quasilab.discrimination import (
    DiscriminationPovm,
    HyperplanePair,
    clonability_check,
    clone_protocol,
    discriminate,
    discrimination_povm,
    hyperplane_pair,
    overlap,
)
from quasilab.operators import ATOL, expectation, kron

Z = np.array([0.0, 0.0, 1.0])
RESOURCE = 2.0 * Z


def random_instance(rng, min_norm=1.05, max_norm=3.0):
    norm = rng.uniform(min_norm, max_norm)
    r = norm * random_direction(rng)
    cap = np.sqrt(1.0 - 1.0 / norm**2)
    rho = np.sqrt(rng.uniform(0.0, 1.0)) * cap
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return r, rho * np.cos(angle), rho * np.sin(angle)


class TestClonability:
    def test_identical_states(self):
        assert clonability_check(Z, Z)
        assert overlap(Z, Z) == 1.0

    def test_orthogonal_states(self):
        assert clonability_check(Z, -Z)
        assert overlap(Z, -Z) == 0.0

    def test_nonorthogonal_pair_with_resource(self):
        # r.r' = 1 despite Tr(rho rho') in (0, 1) exclusive would fail; here it is exactly 1
        rp = np.array([0.6, 0.0, 0.5])
        assert np.dot(RESOURCE, rp) == pytest.approx(1.0, abs=1e-15)
        assert clonability_check(RESOURCE, rp)

    def test_generic_pairs_fail_fixed_point(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            r = random_bloch_vector(rng, 0.0, 3.0)
            rp = random_bloch_vector(rng, 0.0, 3.0)
            t = overlap(r, rp)
            if clonability_check(r, rp):
                continue
            assert abs(t * t - t) > 1e-9

    def test_fixed_point_equivalence(self):
        # Tr(rho rho') in {0, 1} is the same condition as r.r' = +-1
        for dot in (-1.0, -0.3, 0.0, 0.7, 1.0):
            r, rp = 2.0 * Z, np.array([np.sqrt(max(0.25 - (dot / 2.0) ** 2, 0.0)), 0.0, dot / 2.0])
            t = overlap(r, rp)
            assert clonability_check(r, rp) == (abs(t * t - t) <= 1e-12)


class TestHyperplanePair:
    def test_axis_aligned_example(self):
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        assert np.allclose(pair.r_plus, [0.6, 0, 0.5], atol=1e-15)
        assert np.allclose(pair.r_minus, [0.6, 0, -0.5], atol=1e-15)

    def test_zero_offset_still_nonorthogonal(self):
        pair = hyperplane_pair(RESOURCE, 0.0, 0.0)
        assert np.allclose(pair.r_plus, [0, 0, 0.5]) and np.allclose(pair.r_minus, [0, 0, -0.5])
        t = expectation(to_operator(pair.r_plus).matrix, to_operator(pair.r_minus))
        assert t == pytest.approx(0.375, abs=1e-12)

    def test_rejects_too_large_offset(self):
        with pytest.raises(ValueError, match="transverse"):
            hyperplane_pair(np.array([0.0, 0.0, 1.0001]), 0.9, 0.0)

    def test_rejects_quantum_resource(self):
        with pytest.raises(ValueError, match="norm must exceed 1"):
            hyperplane_pair(np.array([0.0, 0.0, 0.9]), 0.1, 0.0)

    def test_hand_built_pair_checked_when_built(self):
        r_plus, r_minus = np.array([0.6, 0.0, 0.5]), np.array([0.6, 0.0, -0.5])
        with pytest.raises(ValueError, match=r"r\.r\+- = \+-1"):
            HyperplanePair(RESOURCE, r_plus, r_plus)
        with pytest.raises(ValueError, match="norm must exceed 1"):
            HyperplanePair(Z, Z, -Z)
        pair = HyperplanePair(RESOURCE, r_plus, r_minus)
        assert discriminate(pair, -1)[0] == -1

    def test_geometry_for_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            r, y, z = random_instance(rng)
            pair = hyperplane_pair(r, y, z)
            assert abs(np.dot(r, pair.r_plus) - 1.0) <= 1e-12
            assert abs(np.dot(r, pair.r_minus) + 1.0) <= 1e-12
            assert np.linalg.norm(pair.r_plus) <= 1.0 + 1e-12
            assert np.linalg.norm(pair.r_minus) <= 1.0 + 1e-12


class TestDiscriminationPovm:
    def test_axis_aligned_blocks(self):
        povm = discrimination_povm(RESOURCE)
        assert np.allclose(povm.p_plus, np.diag([1, 0, 0, 1]), atol=1e-15)
        assert np.allclose(povm.p_minus, np.diag([0, 1, 1, 0]), atol=1e-15)

    def test_rejects_quantum_resource(self):
        with pytest.raises(ValueError, match="norm must exceed 1"):
            discrimination_povm(Z)

    def test_projector_invariants_random_axes(self):
        rng = np.random.default_rng(2)
        resources = random_bloch_vector(rng, np.full(10_000, 1.1), 3.0)
        povm = discrimination_povm(resources)
        p, q = povm.p_plus, povm.p_minus
        assert len(p) == 10_000
        assert np.all(np.abs(p @ p - p).max(axis=(1, 2)) <= 1e-12)
        assert np.all(np.abs(p @ q).max(axis=(1, 2)) <= 1e-12)
        assert np.all(np.abs(p + q - np.eye(4)).max(axis=(1, 2)) <= 1e-12)

    def test_rank_two_and_valid_povm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            povm = discrimination_povm(rng.uniform(1.1, 3.0) * random_direction(rng))
            assert np.max(np.abs(povm.p_plus + povm.p_minus - np.eye(4))) <= 1e-12
            for p in (povm.p_plus, povm.p_minus):
                eigs = np.linalg.eigvalsh(p)
                assert eigs[0] >= -1e-12
                assert np.sum(eigs > 0.5) == 2


class TestDiscriminate:
    def test_plus_is_certain(self):
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        label, q_plus, q_minus = discriminate(pair, +1)
        assert q_plus == pytest.approx(1.0, abs=1e-12) and q_minus == pytest.approx(0.0, abs=1e-12)
        assert label == +1

    def test_minus_is_certain(self):
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        label, q_plus, q_minus = discriminate(pair, -1)
        assert q_minus == pytest.approx(1.0, abs=1e-12) and q_plus == pytest.approx(0.0, abs=1e-12)
        assert label == -1

    def test_outcomes_partition_unity(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            r, y, z = random_instance(rng)
            pair = hyperplane_pair(r, y, z)
            for which in (+1, -1):
                label, q_plus, q_minus = discriminate(pair, which)
                assert label == which
                assert abs(q_plus + q_minus - 1.0) <= 1e-10
                assert abs(q_plus * q_minus) <= 1e-10
            assert overlap(pair.r_plus, pair.r_minus) > 0.0

    def test_frame_rotation_leaves_outcomes_unchanged(self):
        # rotating the transverse offset is the same as rotating the frame
        rng = np.random.default_rng(7)
        for _ in range(50):
            r, y, z = random_instance(rng)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            y_rot = y * np.cos(theta) - z * np.sin(theta)
            z_rot = y * np.sin(theta) + z * np.cos(theta)
            pair = hyperplane_pair(r, y_rot, z_rot)
            assert discriminate(pair, +1)[1] == pytest.approx(1.0, abs=1e-10)
            assert discriminate(pair, -1)[2] == pytest.approx(1.0, abs=1e-10)

    def test_label_is_the_likelier_outcome(self, monkeypatch):
        # a measurement with its projectors swapped favours the wrong outcome:
        # the label and the probabilities it returns come from that one
        # measurement, and the clone of the wrong state shows up as a deviation
        povm = discrimination_povm(RESOURCE)
        swapped = DiscriminationPovm(p_plus=povm.p_minus, p_minus=povm.p_plus)
        monkeypatch.setattr(discrimination, "discrimination_povm", lambda r: swapped)
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        label, q_plus, q_minus = discriminate(pair, +1)
        assert label == -1
        assert q_plus == pytest.approx(0.0, abs=1e-12) and q_minus == pytest.approx(1.0, abs=1e-12)
        _, clone_dev = clone_protocol(pair, label, +1)
        assert clone_dev > ATOL


def test_a_measured_pair_is_freed_without_the_cycle_collector():
    # a pair caches its measurement, never a view of itself, so dropping the
    # last reference frees it at once
    gc.disable()
    try:
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        label, _, _ = discriminate(pair, +1)
        clone_protocol(pair, label, +1)
        freed = weakref.ref(pair)
        del pair
        assert freed() is None
    finally:
        gc.enable()


class TestCloneProtocol:
    def test_outputs_doubled_states(self):
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        for which, target_vec in ((+1, pair.r_plus), (-1, pair.r_minus)):
            label, _, _ = discriminate(pair, which)
            assert label == which
            out, clone_dev = clone_protocol(pair, label, which)
            single = to_operator(target_vec).matrix
            assert clone_dev == np.max(np.abs(out.matrix - kron(single, single)))
            assert clone_dev <= 1e-12

    def test_fidelity_equals_purity_squared(self):
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        out, _ = clone_protocol(pair, +1, +1)
        single = to_operator(pair.r_plus).matrix
        fidelity = expectation(kron(single, single), out)
        purity = 0.5 * (1.0 + float(pair.r_plus @ pair.r_plus))
        assert fidelity == pytest.approx(purity**2, abs=1e-12)
        assert fidelity == pytest.approx(0.648025, abs=1e-12)

    def test_rejects_unknown_labels(self):
        pair = hyperplane_pair(RESOURCE, 0.6, 0.0)
        with pytest.raises(ValueError, match="labels"):
            clone_protocol(pair, 0, +1)
