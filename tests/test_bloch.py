"""Bloch-vector layer: probability rule, complementarity bound, operator
dictionary, and the circle of simultaneously certain directions."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_direction, same_bits
from quasilab.bloch import (
    InvalidDirectionError,
    as_bloch_vectors,
    as_directions,
    from_operator,
    outcome_probability,
    pc_check,
    predictability_circle,
    random_bloch_vector,
    scale_directions,
    to_operator,
    transverse_frame,
)
from quasilab.discrimination import hyperplane_pair
from quasilab.highdim import violates_pc
from quasilab.nonlocal_box import build_box, joint_distribution
from quasilab.operators import ATOL, I2, SIGMA_X, SIGMA_Y, SIGMA_Z, expectation

X, Y, Z = np.eye(3)


finite_components = st.floats(-3.0, 3.0, allow_nan=False)
bloch_vectors = st.tuples(finite_components, finite_components, finite_components).map(np.array)
unit_directions = bloch_vectors.filter(lambda v: np.linalg.norm(v) >= 1e-3).map(lambda v: v / np.linalg.norm(v))
# |r| - 1 across the band where the complementarity verdict flips, less a
# window around ATOL that is wider than the rounding of |r|
flip_band_excess = st.floats(-3e-12, 3e-12).filter(lambda e: abs(e - ATOL) > 1e-14)


class TestOutcomeProbability:
    def test_eigenstate(self):
        assert outcome_probability(Z, Z, +1) == 1.0
        assert outcome_probability(Z, Z, -1) == 0.0

    def test_maximally_mixed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert outcome_probability(np.zeros(3), random_direction(rng), +1) == 0.5

    def test_violating_vector_gate(self):
        r = np.array([0.0, 0.0, 2.0])
        assert outcome_probability(r, X, +1) == 0.5
        with pytest.raises(InvalidDirectionError):
            outcome_probability(r, Z, +1)

    def test_outcomes_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = random_bloch_vector(rng, 0.0, 3.0)
            n = random_direction(rng)
            if abs(np.dot(r, n)) > 1.0:
                continue
            total = outcome_probability(r, n, +1) + outcome_probability(r, n, -1)
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError, match="unit"):
            outcome_probability(Z, np.array([0.0, 0.0, 2.0]), +1)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            outcome_probability(Z, Z, 2)


class TestPcCheck:
    def test_boundary(self):
        result = pc_check(np.array([0.6, 0.8, 0.0]))
        assert result.satisfied
        assert result.mean_square_sum == pytest.approx(1.0, abs=1e-15)

    def test_violation(self):
        result = pc_check(np.array([0.0, 0.0, 1.2]))
        assert not result.satisfied
        assert result.mean_square_sum == pytest.approx(1.44, abs=1e-15)

    def test_interior(self):
        result = pc_check(np.array([0.5, 0.5, 0.5]))
        assert result.satisfied
        assert result.mean_square_sum == pytest.approx(0.75, abs=1e-15)

    @given(bloch_vectors)
    def test_mean_square_sum_is_squared_norm(self, r):
        result = pc_check(r)
        assert abs(result.mean_square_sum - result.norm**2) <= 1e-12


def pauli_sum(r) -> np.ndarray:
    """(1/2)(I + x X + y Y + z Z) summed term by term in one complex array:
    the reference whose bits ``to_operator``'s direct entries keep."""
    r = np.asarray(r, dtype=float)[..., None, None]
    m = r[..., 0, :, :] * SIGMA_X
    m += I2
    m += r[..., 1, :, :] * SIGMA_Y
    m += r[..., 2, :, :] * SIGMA_Z
    m *= 0.5
    return m


# Components where the sign of a zero or the rounding of a half shows:
# signed zeros, subnormals, the normal minimum, and large values up to z
# just below 2^53; every triple of them, less those with |z| >= 2^53.
SPECIAL_COMPONENTS = (0.0, -0.0, 5e-324, -5e-324, 1.5e-323, -1e-323, 2.2e-308, -2.2e-308, 0.5, -1.0, 3.0, 1e-300)
SPECIAL_COMPONENTS += (-1e15, 2.0**52 + 0.5, 2.0**53 - 1, -1e300)
SPECIAL_ROWS = np.array([r for r in itertools.product(SPECIAL_COMPONENTS, repeat=3) if abs(r[2]) < 2.0**53])


class TestOperatorDictionary:
    @pytest.mark.parametrize("lead", [(-1,), (4, -1), (0,)], ids=["stack", "two-axes", "empty"])
    def test_entries_are_the_pauli_sums(self, lead):
        rows = np.concatenate((SPECIAL_ROWS, np.random.default_rng(1).standard_normal((1000, 3)) * 1e3))
        rs = rows[: 0 if lead == (0,) else len(rows) // 4 * 4].reshape(lead + (3,))
        assert same_bits(to_operator(rs).matrix, pauli_sum(rs))

    def test_one_entry_is_its_pauli_sum(self):
        assert all(same_bits(to_operator(r).matrix, pauli_sum(r)) for r in SPECIAL_ROWS[::7])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape, at", [((3,), (1,)), ((2, 3, 3), (1, 0, 2))], ids=["one", "two-axes"])
    def test_finite_components_are_judged_per_component(self, shape, at, bad):
        # one vector, or a stack over two leading axes, passes as it is and
        # is rejected with one non-finite component anywhere (stacks of one
        # axis: tests/test_batch.py)
        rs = np.ones(shape)
        assert as_bloch_vectors(rs) is rs
        rs[at] = bad
        with pytest.raises(ValueError, match="must be finite"):
            as_bloch_vectors(rs)

    def test_center_is_maximally_mixed(self):
        assert np.allclose(to_operator(np.zeros(3)).matrix, I2 / 2)

    def test_pure_pole(self):
        assert np.allclose(to_operator(Z).matrix, np.diag([1, 0]))

    def test_beyond_ball(self):
        state = to_operator(np.array([0.0, 0.0, 1.5]))
        assert np.allclose(state.matrix, np.diag([1.25, -0.25]))
        assert state.min_eigenvalue == pytest.approx(-0.25, abs=1e-14)

    def test_from_operator_examples(self):
        assert np.allclose(from_operator(I2 / 2), np.zeros(3))
        assert np.allclose(from_operator(np.diag([1.25, -0.25]).astype(complex)), [0, 0, 1.5])
        assert np.allclose(from_operator(0.5 * (I2 + SIGMA_X)), X)

    @given(bloch_vectors)
    def test_round_trip(self, r):
        assert np.max(np.abs(from_operator(to_operator(r)) - r)) <= 1e-14

    @given(bloch_vectors)
    def test_psd_iff_pc(self, r):
        assert pc_check(r).satisfied == to_operator(r).is_positive()

    @pytest.mark.parametrize("excess", [1e-9, 1e-10, 1e-11, 1.5e-12, 1e-12, 5e-13, -5e-13])
    def test_psd_iff_pc_at_the_unit_sphere(self, excess):
        # the band where a norm tolerance and an eigenvalue tolerance that
        # are not matched to (1 - |r|)/2 give opposite verdicts
        r = np.array([0.0, 0.0, 1.0 + excess])
        assert pc_check(r).satisfied == to_operator(r).is_positive()
        assert pc_check(r).satisfied == (excess < 1e-12)

    def test_verdicts_inside_the_flip_window(self):
        # the window that criterion 3 and flip_band_excess leave out: |r| - 1
        # within 1e-14 of ATOL. The norm and the spectrum may round to
        # opposite verdicts there, but only within 1e-15 (a few ulps of 1)
        # of the flip; outside that both give the side |r| lies on.
        rng = np.random.default_rng(11)
        excess = rng.uniform(-1e-14, 1e-14, 100_000)
        rs = scale_directions(rng.standard_normal((excess.size, 3)), 1.0 + ATOL + excess)
        by_norm, by_spectrum = pc_check(rs).satisfied, to_operator(rs).is_positive()
        near = np.abs(excess) <= 1e-15
        assert np.all(near[by_norm != by_spectrum])
        assert np.array_equal(by_norm[~near], excess[~near] < 0)
        assert np.array_equal(by_spectrum[~near], excess[~near] < 0)

    @settings(max_examples=300)
    @given(unit_directions, flip_band_excess)
    def test_every_classifier_flips_where_pc_check_does(self, direction, excess):
        r = (1.0 + excess) * direction
        state = to_operator(r)
        try:
            hyperplane_pair(r, 0.0, 0.0)
            pair_rejected = False
        except ValueError:
            pair_rejected = True
        circle = predictability_circle(r)
        verdicts = {
            "pc_check": pc_check(r).satisfied,
            "is_positive": state.is_positive(),
            "not violates_pc": not violates_pc(state),
            "hyperplane_pair rejects": pair_rejected,
            "no circle of positive radius": circle is None or circle.radius == 0.0,
        }
        assert verdicts == dict.fromkeys(verdicts, excess < ATOL)


class TestProjector:
    """The operator of a unit direction is the projector onto its +1
    outcome; the joint tables build their outcome projectors this way."""

    def test_poles(self):
        assert np.allclose(to_operator(Z).matrix, np.diag([1, 0]))
        assert np.allclose(to_operator(X).matrix, 0.5 * np.ones((2, 2)))

    def test_idempotent_and_complete(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = random_direction(rng)
            p = to_operator(n).matrix
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert np.allclose(p + to_operator(-n).matrix, I2, atol=1e-15)

    def test_rejects_non_unit(self):
        box = build_box(Z)
        for a, b in (([0.0, 0.0, 0.5], Z), (Z, [0.0, 0.0, 0.5])):
            with pytest.raises(ValueError, match="direction must have unit norm, got 0.5"):
                joint_distribution(box, a, b)


class TestRuleEquivalence:
    def test_probability_equals_trace_rule(self):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            r = random_bloch_vector(rng, 0.0, 3.0)
            n = random_direction(rng)
            if abs(np.dot(r, n)) > 1.0:
                continue
            checked += 1
            state = to_operator(r)
            for outcome in (+1, -1):
                p_rule = outcome_probability(r, n, outcome)
                p_trace = expectation(to_operator(outcome * n).matrix, state)
                assert abs(p_rule - p_trace) <= 1e-12


class TestPredictabilityCircle:
    def test_violating_geometry(self):
        circle = predictability_circle(np.array([0.0, 0.0, 2.0]))
        assert np.allclose(circle.center, [0, 0, 0.5])
        assert circle.radius == pytest.approx(np.sqrt(3) / 2, abs=1e-15)
        assert np.allclose(circle.plane_normal, Z)

    def test_boundary_point(self):
        circle = predictability_circle(Z)
        assert circle.radius == 0.0
        assert np.allclose(circle.center, Z)

    def test_interior_has_none(self):
        assert predictability_circle(np.array([0.0, 0.0, 0.5])) is None

    def test_sampled_directions_are_certain_and_non_colinear(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = random_bloch_vector(rng, 1.0 + 1e-9, 3.0)
            points = predictability_circle(r).sample(64)
            for n in points:
                as_directions(n)
                assert abs(outcome_probability(r, n, +1) - 1.0) <= 1e-12
            assert np.linalg.norm(np.cross(points[0], points[1])) > 1e-12

    def test_frame_is_right_handed(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            r_hat = random_direction(rng)
            m, n = transverse_frame(r_hat)
            assert np.dot(r_hat, np.cross(m, n)) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.dot(r_hat, m)) <= 1e-12 and abs(np.dot(r_hat, n)) <= 1e-12


@settings(max_examples=200)
@given(bloch_vectors)
def test_observation_sum_matches_norm(r):
    # squared mean values along the canonical axes against the norm
    means = [np.dot(r, axis) for axis in (X, Y, Z)]
    assert abs(sum(m * m for m in means) - np.dot(r, r)) <= 1e-12


@settings(max_examples=100)
@given(
    st.floats(-12.0, -5.0).map(lambda exponent: 10.0**exponent),
    st.floats(0.0, 2.0 * np.pi),
    st.sampled_from([+1.0, -1.0]),
    st.floats(1.05, 3.0),
    st.floats(-1.0, 1.0),
)
def test_frame_near_the_z_axis(distance, azimuth, pole, norm, offset):
    # r_hat between 1e-12 and 1e-5 from +-z, inside the band where the frame
    # starts from x: the frame stays orthonormal, the pair on its planes,
    # and the certainty circle on the sphere
    r_hat = np.array([distance * np.cos(azimuth), distance * np.sin(azimuth), pole * np.sqrt(1.0 - distance**2)])
    m, n = transverse_frame(r_hat)
    gram = np.array([r_hat, m, n]) @ np.array([r_hat, m, n]).T
    assert np.max(np.abs(gram - np.eye(3))) <= ATOL
    assert np.dot(r_hat, np.cross(m, n)) == pytest.approx(1.0, abs=ATOL)

    r = norm * r_hat
    cap = np.sqrt(1.0 - 1.0 / norm**2)
    pair = hyperplane_pair(r, offset * cap / 2, offset * cap / 2)
    assert abs(r @ pair.r_plus - 1.0) <= ATOL and abs(r @ pair.r_minus + 1.0) <= ATOL

    points = predictability_circle(r).sample(16)
    as_directions(points)
    assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= ATOL
    assert np.max(np.abs(outcome_probability(np.tile(r, (16, 1)), points, +1) - 1.0)) <= ATOL
