"""Batched kernels against their N = 1 results.

Every ``*_batch`` kernel run on a stack must give, row by row, the bits it
gives on that row alone: a value computed over the whole stack where a
per-row value was meant (a max over the batch, a shared pivot) shows up
here. The stacks are the seed-42 draws of criteria 3, 6 and 9 plus edge
rows: r = 0 (degenerate spectrum), r within 1e-6 of +-z (the other branch
of ``transverse_frame``) and |r| - 1 = +-3 ATOL. One bad row fails the
whole stack with the error its scalar call raises.
"""

import numpy as np
import pytest

from quasilab import acceptance
from quasilab.bloch import (
    InvalidDirectionError,
    outcome_probability,
    outcome_probability_batch,
    pc_check,
    pc_check_batch,
    predictability_circle_batch,
    to_operator,
    to_operator_batch,
    transverse_frame_batch,
)
from quasilab.discrimination import (
    HyperplanePair,
    clonability_check_batch,
    clone_protocol,
    clone_protocol_batch,
    detection_probabilities_batch,
    discriminate_batch,
    discrimination_povm,
    discrimination_povm_batch,
    hyperplane_pair,
    hyperplane_pair_batch,
    overlap_batch,
)
from quasilab.nonlocal_box import build_box, build_box_batch
from quasilab.operators import ATOL, I2, QuasiState, Stacked, hermitian_eigensystem_batch

SEED = acceptance.DEFAULT_SEED
Z = np.array([0.0, 0.0, 1.0])
EDGE_ROWS = np.array(
    [
        [0.0, 0.0, 0.0],
        [1e-7, 0.0, 1.3],
        [0.0, -1e-7, -2.0],
        [0.0, 0.0, 1.0 + 3 * ATOL],
        [0.0, 0.0, 1.0 - 3 * ATOL],
        (1.0 + 3 * ATOL) * np.array([0.6, 0.0, 0.8]),
        (1.0 - 3 * ATOL) * np.array([0.0, 0.8, -0.6]),
    ]
)


def _draws(name, samples):
    return getattr(acceptance, name)(np.random.default_rng(SEED), samples)


# Seed-42 draws: criterion 3 (every tenth within 3 ATOL of the unit sphere),
# criterion 9 (a quarter inside the ball) and criterion 6 (admissible pairs).
PC_PSD_ROWS = np.concatenate((_draws("_pc_psd_draws", 2000), EDGE_ROWS))
PIPELINE_ROWS = np.concatenate((_draws("_pipeline_draws", 400), EDGE_ROWS))
DISCRIMINATION_DRAWS = _draws("_discrimination_draws", 300)


def _rows(result, k):
    """Row k of a kernel's result: a Stacked value, an array or a tuple."""
    if isinstance(result, tuple):
        return tuple(_rows(part, k) for part in result)
    if isinstance(result, Stacked):
        return tuple(_rows(getattr(result, name), k) for name in result.__dataclass_fields__)
    return np.asarray(result)[k]


def _same_bits(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same_bits(x, y) for x, y in zip(a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_rows_match_singles(kernel, *stacks):
    """kernel(*stacks)[k] equals kernel(*(s[k:k+1]))[0] bit for bit, for every k."""
    batched = kernel(*stacks)
    for k in range(len(stacks[0])):
        single = kernel(*(s[k : k + 1] for s in stacks))
        assert _same_bits(_rows(batched, k), _rows(single, 0)), f"row {k}"


class TestStackEqualsSingles:
    def test_pc_check(self):
        assert_rows_match_singles(pc_check_batch, PC_PSD_ROWS)

    def test_to_operator_and_its_spectrum(self):
        assert_rows_match_singles(lambda rs: to_operator_batch(rs), PC_PSD_ROWS)
        assert_rows_match_singles(lambda rs: to_operator_batch(rs).eigenvalues, PC_PSD_ROWS)
        assert_rows_match_singles(lambda rs: to_operator_batch(rs).is_positive(), PC_PSD_ROWS)

    def test_hermitian_eigensystem(self):
        assert_rows_match_singles(lambda rs: hermitian_eigensystem_batch(to_operator_batch(rs).matrix), PC_PSD_ROWS)

    def test_outcome_probability(self):
        # preparations inside the ball, so that every direction is genuine
        rs = PC_PSD_ROWS / 3.0
        ns = np.roll(PC_PSD_ROWS, 1, axis=0)
        ns = np.where(np.linalg.norm(ns, axis=1, keepdims=True) > 0.1, ns, Z)
        ns = ns / np.sqrt(np.vecdot(ns, ns))[:, None]
        outcomes = np.where(np.arange(len(rs)) % 2, +1, -1)
        assert_rows_match_singles(outcome_probability_batch, rs, ns, outcomes)

    def test_transverse_frame(self):
        r_hats = PIPELINE_ROWS[np.linalg.norm(PIPELINE_ROWS, axis=1) > 0.5]
        r_hats = r_hats / np.sqrt(np.vecdot(r_hats, r_hats))[:, None]
        assert_rows_match_singles(transverse_frame_batch, r_hats)

    def test_predictability_circle(self):
        rs = PC_PSD_ROWS[pc_check_batch(PC_PSD_ROWS).norm >= 1.0 - ATOL]
        assert_rows_match_singles(predictability_circle_batch, rs)
        assert_rows_match_singles(lambda rs: predictability_circle_batch(rs).sample(8), rs)

    def test_build_box(self):
        assert_rows_match_singles(build_box_batch, PIPELINE_ROWS)

    def test_overlap_and_clonability(self):
        rps = PC_PSD_ROWS[::-1]
        assert_rows_match_singles(overlap_batch, PC_PSD_ROWS, rps)
        assert_rows_match_singles(clonability_check_batch, PC_PSD_ROWS, rps)

    def test_hyperplane_pair_and_its_measurement(self):
        rs, ys, zs = DISCRIMINATION_DRAWS
        # resources on the z axis take the other branch of transverse_frame
        rs = np.concatenate((rs, [2.0 * Z, -1.5 * Z]))
        ys, zs = np.concatenate((ys, [0.6, 0.0])), np.concatenate((zs, [0.0, -0.3]))
        labels = np.where(np.arange(len(rs)) % 3, +1, -1)
        hidden = np.where(np.arange(len(rs)) % 5, -1, +1)
        pairs = hyperplane_pair_batch

        assert_rows_match_singles(pairs, rs, ys, zs)
        assert_rows_match_singles(discrimination_povm_batch, rs)
        assert_rows_match_singles(lambda *a: detection_probabilities_batch(pairs(*a[:3]), a[3]), rs, ys, zs, hidden)
        assert_rows_match_singles(lambda *a: discriminate_batch(pairs(*a[:3]), a[3]), rs, ys, zs, hidden)
        # labels that differ from the hidden state exercise the deviation
        clone = lambda *a: clone_protocol_batch(pairs(*a[:3]), a[3], a[4])  # noqa: E731
        assert_rows_match_singles(clone, rs, ys, zs, labels, hidden)


@pytest.mark.parametrize(
    "kernel",
    [
        pc_check_batch,
        to_operator_batch,
        build_box_batch,
        discrimination_povm_batch,
        lambda rs: hyperplane_pair_batch(rs, [], []),
    ],
    ids=["pc_check", "to_operator", "build_box", "discrimination_povm", "hyperplane_pair"],
)
def test_empty_stack_gives_empty_results(kernel):
    def leaves(value):
        if isinstance(value, Stacked):
            return [leaf for name in value.__dataclass_fields__ for leaf in leaves(getattr(value, name))]
        return [value]

    assert all(np.shape(leaf)[0] == 0 for leaf in leaves(kernel(np.empty((0, 3)))))


def _eigensystem_loop(m):
    """The per-column phase rule as one loop over the columns of one
    matrix: the oracle of the batched rule."""
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        big = np.flatnonzero(np.abs(col) > 1e-8)
        if big.size:
            pivot = col[big[0]]
            vecs[:, k] = col * (abs(pivot) / pivot)
    return vals, vecs


def _random_hermitian(rng, n, dim):
    m = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    return m + m.conj().swapaxes(1, 2)


@pytest.mark.parametrize(
    "matrices",
    [
        to_operator_batch(PC_PSD_ROWS).matrix,
        to_operator_batch(PIPELINE_ROWS).matrix,
        _random_hermitian(np.random.default_rng(5), 200, 3),
        _random_hermitian(np.random.default_rng(6), 200, 4),
        # a zero pivot candidate in the first row: the rule skips to the next
        np.array([np.diag([1.0, 2.0, 3.0]), [[0, 0, 0], [0, 1, 1j], [0, -1j, 1]]], dtype=complex),
    ],
    ids=["criterion-3", "criterion-9", "dim-3", "dim-4", "sparse"],
)
def test_batched_phase_rule_matches_the_column_loop(matrices):
    eig = hermitian_eigensystem_batch(matrices)
    for k, m in enumerate(matrices):
        vals, vecs = _eigensystem_loop(m)
        assert _same_bits(eig.eigenvalues[k], vals) and _same_bits(eig.eigenvectors[k], vecs), f"matrix {k}"


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


class TestOneBadRowFailsTheBatch:
    """A bad row raises the error of its scalar call, wherever it sits."""

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 1.0]], ids=["nan", "inf"])
    def test_non_finite_component(self, position, bad):
        rs = PC_PSD_ROWS[:8].copy()
        rs[position] = bad
        rps = PC_PSD_ROWS[8:16]
        for batch, scalar in (
            (pc_check_batch, pc_check),
            (to_operator_batch, to_operator),
            (build_box_batch, build_box),
            (discrimination_povm_batch, discrimination_povm),
        ):
            assert _error(lambda: batch(rs)) == _error(lambda: scalar(np.array(bad)))
        assert _error(lambda: overlap_batch(rs, rps)) == _error(lambda: overlap_batch(np.array([bad]), rps[:1]))
        assert _error(lambda: hyperplane_pair_batch(rs, np.zeros(8), np.zeros(8))) == _error(
            lambda: hyperplane_pair(np.array(bad), 0.0, 0.0)
        )

    @pytest.mark.parametrize(
        "bad",
        [np.array([[0.5, 1.0], [0.0, 0.5]]), np.array([[0.5, 0.0], [0.0, 0.6]]), np.full((2, 2), np.nan)],
        ids=["not-hermitian", "trace", "nan"],
    )
    def test_hermitian_or_trace_failure(self, bad):
        stack = np.array([I2 / 2, I2 / 2, bad, I2 / 2])
        assert _error(lambda: QuasiState(stack)) == _error(lambda: QuasiState(bad))

    def test_pair_off_its_planes(self):
        pair = hyperplane_pair(2.0 * Z, 0.6, 0.0)
        resource = np.array([pair.resource] * 4)
        r_plus, r_minus = np.array([pair.r_plus] * 4), np.array([pair.r_minus] * 4)
        r_minus[2] = pair.r_plus
        assert _error(lambda: HyperplanePair(resource, r_plus, r_minus)) == _error(
            lambda: HyperplanePair(pair.resource, pair.r_plus, pair.r_plus)
        )

    def test_direction_beyond_the_probability_rule(self):
        rs = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, 2.0], [0.3, 0.0, 0.0]])
        ns = np.array([Z, Z, Z])
        with pytest.raises(InvalidDirectionError) as batched:
            outcome_probability_batch(rs, ns, +1)
        with pytest.raises(InvalidDirectionError) as single:
            outcome_probability(rs[1], Z, +1)
        assert str(batched.value) == str(single.value)

    def test_bad_labels(self):
        pairs = hyperplane_pair_batch(*(d[:3] for d in DISCRIMINATION_DRAWS))
        pair = pairs[1]
        assert _error(lambda: detection_probabilities_batch(pairs, [1, 0, -1])) == _error(
            lambda: detection_probabilities_batch(pair.stack, 0)
        )
        bad_label = _error(lambda: clone_protocol_batch(pairs, [1, 2, -1], -1))
        assert bad_label == _error(lambda: clone_protocol(pair, 2, -1))
