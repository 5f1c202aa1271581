"""Random draws: the bulk draws of the randomized criteria and of
``random_bloch_vector`` equal, bit for bit, references written out here
with scalar expressions, one generator call per element. Every randomized
criterion draws in bulk, one generator call per kind of draw: its
reference draws every element of one kind, in index order, before the next
kind, and draws what it rejects again the same way, round by round. A
random Bloch vector's reference draws every norm from ``rng.uniform``, then
every direction of three normals divided by ``np.linalg.norm``; criteria 5
and 6 then draw the same admissible hyperplane instances, and criterion 3
the excesses of its band between the norms and the directions. Criterion
7's reference draws every random tail's weights (one Dirichlet draw a
tail), then every jitter element, then every basis's real normals, every
imaginary one and every phase."""

import re

import numpy as np
import pytest

from helpers import ScaledDraws, random_direction
from quasilab import acceptance
from quasilab.bloch import random_bloch_vector, scale_directions
from quasilab.operators import ATOL

# At this seed one of criterion 6's norms has a Python square norm**2 (C
# pow) that differs in the last bit from the product norm * norm, which is
# what the vectorized norms**2 of the bulk draws computes, and so do that
# instance's y and z (see test_trap_seed_squares_differ). So the references
# square by the product. None of the other seeds below holds such a norm.
POW_TRAP_SEED = 8
SEEDS = [0, 1, 5, acceptance.DEFAULT_SEED, POW_TRAP_SEED]


def _vectors(rng, ranges):
    """One vector per (min_norm, max_norm) range: every norm, then every
    direction."""
    norms = [rng.uniform(min_norm, max_norm) for min_norm, max_norm in ranges]
    return np.array([norm * random_direction(rng) for norm in norms])


def _flip_band_vectors(rng, samples):
    """Criterion 3's vectors: norms 3u, then the excess over 1 of every
    tenth norm, then the excesses that fell within 1e-14 of ATOL drawn
    again in index order, round by round, then the directions."""
    norms = [3.0 * rng.random() for _ in range(samples)]
    band = range(0, samples, 10)
    excess = {k: rng.uniform(-3 * ATOL, 3 * ATOL) for k in band}
    near = [k for k in band if abs(excess[k] - ATOL) <= 1e-14]
    while near:
        for k in near:
            excess[k] = rng.uniform(-3 * ATOL, 3 * ATOL)
        near = [k for k in near if abs(excess[k] - ATOL) <= 1e-14]
    for k in band:
        norms[k] = 1.0 + excess[k]
    return np.array([norm * random_direction(rng) for norm in norms])


def _square(norm):
    return norm * norm


def _admissible_instances(rng, samples, square=_square):
    """The norms, then the resources, y and z of criteria 5 and 6's
    hyperplane instances: every norm, every resource, every radius's
    uniform, then every angle."""
    norms = [rng.uniform(1.05, 3.0) for _ in range(samples)]
    rs = [norm * random_direction(rng) for norm in norms]
    rhos = [np.sqrt(rng.uniform(0.0, 1.0)) * np.sqrt(1.0 - 1.0 / square(norm)) for norm in norms]
    angles = [rng.uniform(0.0, 2.0 * np.pi) for _ in range(samples)]
    y = [rho * np.cos(angle) for rho, angle in zip(rhos, angles)]
    z = [rho * np.sin(angle) for rho, angle in zip(rhos, angles)]
    return np.array(norms), np.array(rs), np.array(y), np.array(z)


def _pairs(rng, samples):
    # each pair's r and then its r', pair by pair
    rs = _vectors(rng, [(0.0, 3.0)] * (2 * samples))
    return (rs[0::2], rs[1::2], *_admissible_instances(rng, 100)[1:])


def _stacked_pairs(rng, samples):
    return (*acceptance._clonability_draws(rng, samples), *acceptance._admissible_draws(rng, 100))


# criterion: (samples, reference, stacked), each draw a tuple of arrays
DRAWS = {
    3: (
        1000,
        lambda rng, n: (_flip_band_vectors(rng, n),),
        lambda rng, n: (acceptance._pc_psd_draws(rng, n),),
    ),
    4: (
        300,
        lambda rng, n: (_vectors(rng, [(1.0 + 1e-6, 3.0)] * n),),
        lambda rng, n: (acceptance._witness_draws(rng, n),),
    ),
    5: (1000, _pairs, _stacked_pairs),
    6: (
        1000,
        lambda rng, n: _admissible_instances(rng, n)[1:],
        acceptance._admissible_draws,
    ),
    9: (
        400,
        lambda rng, n: (_vectors(rng, [(1.0 + 1e-9, 3.0) if k % 4 else (0.0, 1.0) for k in range(n)]),),
        lambda rng, n: (acceptance._pipeline_draws(rng, n),),
    ),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("criterion", sorted(DRAWS))
def test_stacked_draws_equal_the_per_sample_draws(criterion, seed):
    samples, reference, stacked = DRAWS[criterion]
    rng, stacked_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected, drawn = reference(rng, samples), stacked(stacked_rng, samples)
    assert len(drawn) == len(expected)
    for want, got in zip(expected, drawn):
        assert np.array_equal(got, want)
    # and both consumed the same stream, so a later draw starts where it did
    assert stacked_rng.bit_generator.state == rng.bit_generator.state


def _highdim_grid_states(rng, dim):
    """Criterion 7's 16 states of one dimension, per epsilon the uniform
    tail first and then three random ones: every random tail's weights,
    then every jitter element, then the rejected tails drawn again the same
    way in index order, round by round; then every basis's real normals,
    every imaginary one, and every phase, element by element."""
    epsilons = [epsilon for epsilon in (0.1, 0.5, 1.0, 2.0) for _ in range(4)]
    tails = [np.full(dim - 1, -epsilon / (dim - 1)) for epsilon in epsilons]
    redraw = [k for k in range(16) if k % 4 and dim > 2]
    while redraw:
        weights = {k: rng.dirichlet(np.ones(dim - 1)) for k in redraw}
        jitter = {k: np.array([rng.normal(0.0, 0.3) for _ in range(dim - 1)]) for k in redraw}
        for k in redraw:
            tails[k] = -epsilons[k] * weights[k] + jitter[k] - jitter[k].mean()
        redraw = [
            k
            for k in redraw
            if not (tails[k].max() < 1.0 + epsilons[k] - 1e-6 and abs(tails[k].sum() + epsilons[k]) <= ATOL)
        ]
    real, imaginary = (
        [np.array([[rng.standard_normal() for _ in range(dim)] for _ in range(dim)]) for _ in range(16)]
        for _ in range(2)
    )
    bases = [np.linalg.qr(re + 1j * im)[0] for re, im in zip(real, imaginary)]
    phases = [[rng.uniform(0.0, 2.0 * np.pi) for _ in range(dim)] for _ in range(16)]
    return np.array(epsilons), np.array(tails), np.array(bases), np.array(phases)


def _assert_highdim_grid_draws_equal_the_reference(rng, stacked_rng):
    for dim in range(2, 7):
        expected, drawn = _highdim_grid_states(rng, dim), acceptance._highdim_grid_draws(stacked_rng, dim)
        for want, got in zip(expected, drawn, strict=True):
            assert np.array_equal(got, want), f"d = {dim}"
        # d = 2 draws no tail: each is [-epsilon]
        assert dim > 2 or np.array_equal(drawn[1], -drawn[0][:, None])
    assert stacked_rng.bit_generator.state == rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_highdim_grid_draws_equal_the_per_state_draws(seed):
    _assert_highdim_grid_draws_equal_the_reference(np.random.default_rng(seed), np.random.default_rng(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_highdim_grid_redraws_equal_the_reference(seed):
    # jitter ten times as wide in the first 12 tails of d = 3 (24 values)
    # fails the bound on the largest entry for some of them, so they are
    # drawn again in a second round; no seed here rejects a tail otherwise
    def loud(seed):
        return ScaledDraws(np.random.default_rng(seed), "normal", 24, 10.0)

    _assert_highdim_grid_draws_equal_the_reference(loud(seed), loud(seed))


def test_trap_seed_squares_differ():
    # at this seed a reference that squared criterion 6's norms with
    # Python's pow would draw other instances than the bulk norms**2, so
    # test_stacked_draws_equal_the_per_sample_draws pins which square the
    # draws take
    samples = DRAWS[6][0]
    norms, *expected = _admissible_instances(np.random.default_rng(POW_TRAP_SEED), samples)
    assert np.array_equal(norms**2, norms * norms)
    assert np.any(norms * norms != np.array([norm**2 for norm in norms]))
    _, *powered = _admissible_instances(np.random.default_rng(POW_TRAP_SEED), samples, square=lambda norm: norm**2)
    assert not all(np.array_equal(a, b) for a, b in zip(powered, expected))


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_draws_are_the_stack_of_one(seed):
    rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(200):
        if k % 2:
            assert np.array_equal(random_bloch_vector(scalar_rng, 0.5, 2.0), _vectors(rng, [(0.5, 2.0)])[0])
        else:
            assert np.array_equal(scale_directions(scalar_rng.standard_normal(3), 1.0), random_direction(rng))


def test_ranges_row_by_row():
    lows = np.array([0.0, 1.0, 2.0, 5.0])
    rs = random_bloch_vector(np.random.default_rng(3), lows, lows + 0.5)
    assert rs.shape == (4, 3)
    norms = np.sqrt(np.sum(rs * rs, axis=1))
    assert np.all((lows - 1e-12 <= norms) & (norms <= lows + 0.5 + 1e-12))
    # one number for all rows, on either side
    assert random_bloch_vector(np.random.default_rng(3), 1.0, np.full(5, 2.0)).shape == (5, 3)
    assert random_bloch_vector(np.random.default_rng(3), np.zeros(0), 1.0).shape == (0, 3)
    # ranges of any shape give a stack of that shape
    assert random_bloch_vector(np.random.default_rng(3), np.zeros((2, 2)), 1.0).shape == (2, 2, 3)


@pytest.mark.parametrize(
    "min_norm, max_norm, first",
    [
        (np.full(5, 2.0), 1.0, "[2.0, 1.0)"),
        (-1.0, -0.5, "[-1.0, -0.5)"),
        (0.0, np.inf, "[0.0, inf)"),
        (np.nan, 1.0, "[nan, 1.0)"),
        (0.0, [1.0, np.nan, 0.5], "[0.0, nan)"),
    ],
)
def test_ranges_it_cannot_honour_are_rejected(min_norm, max_norm, first):
    # reversed, negative and non-finite ranges: the first bad one is named,
    # and nothing is drawn
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=re.escape(f"0 <= min_norm <= max_norm, got {first}")):
        random_bloch_vector(rng, min_norm, max_norm)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
