"""Stacks against single instances.

Every operation run on a stack must give, row by row, the bits it gives on
that row's instance alone, and one instance must come back with Python
numbers: a value computed over the whole stack where a per-row value was
meant (a max over the batch, a shared pivot) shows up here. The stacks are
the seed-42 draws of criteria 3, 6 and 9 plus edge rows: r = 0 (degenerate
spectrum), r within 1e-6 of +-z (the other branch of ``transverse_frame``)
and |r| - 1 = +-3 ATOL. Boxes are measured at strengths on both sides of
sqrt(2) and one ulp from it. The high-dimensional stacks are drawn as
criterion 7 draws them, for d = 2..8. One bad row fails the whole stack
with the error the call on that row's instance raises.
"""

import numpy as np
import pytest

from helpers import assert_qubit_eigensystem, random_direction, same_bits
from quasilab import acceptance
from quasilab.bloch import (
    InvalidDirectionError,
    along_z,
    from_operator,
    outcome_probability,
    pc_check,
    predictability_circle,
    random_bloch_vector,
    to_operator,
    transverse_frame,
)
from quasilab.discrimination import (
    HyperplanePair,
    clonability_check,
    clone_protocol,
    detection_probabilities,
    discriminate,
    discrimination_experiment,
    discrimination_povm,
    hyperplane_pair,
    overlap,
)
from quasilab.highdim import (
    CERTAIN,
    NULL,
    build_probe_state,
    build_violating_state,
    detection_probability,
    discriminate_highdim,
    entangled_projector,
    probe_experiment,
    probe_magnitudes,
    violates_pc,
)
from quasilab.nonlocal_box import (
    SQRT2,
    TSIRELSON_SETTINGS,
    ChshSettings,
    build_box,
    chsh_experiment,
    chsh_settings_for,
    chsh_value,
    joint_distribution,
    setting_tables,
    signalling_deviation,
)
from quasilab.operators import ATOL, I2, QuasiState, Stacked, expectation, hermitian_eigensystem, partial_trace

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
DISCRIMINATION_DRAWS = _draws("_admissible_draws", 300)

# CHSH strengths on both branches of chsh_settings_for, and one ulp either
# side of the branch point sqrt(2)
STRENGTHS = np.array([1e-3, 1.0, np.nextafter(SQRT2, 0.0), SQRT2, np.nextafter(SQRT2, 2.0), 3.0, 1000.0])


def _settings_stack(settings) -> ChshSettings:
    return ChshSettings(*(np.array([getattr(s, name) for s in settings]) for name in ("a1", "a2", "b1", "b2")))


def _chsh_instances():
    """Boxes and settings, row by row: the box of each strength along a
    random direction with the settings for that strength, the box of each
    strength along z with the Tsirelson settings, then boxes of criterion 9
    with random settings."""
    rng = np.random.default_rng(SEED)
    directions = np.array([random_direction(rng) for _ in STRENGTHS])
    rs = np.concatenate((STRENGTHS[:, None] * directions, STRENGTHS[:, None] * Z, PIPELINE_ROWS[:20]))
    settings = [chsh_settings_for(r) for r in STRENGTHS] + [TSIRELSON_SETTINGS] * len(STRENGTHS)
    settings += [ChshSettings(*(random_direction(rng) for _ in range(4))) for _ in range(20)]
    return build_box(rs), _settings_stack(settings)


CHSH_BOXES, CHSH_SETTINGS = _chsh_instances()


def _leaves(result) -> tuple:
    """The arrays and numbers a result holds: a Stacked value, a tuple, an
    array or a number."""
    if isinstance(result, tuple):
        return tuple(leaf for part in result for leaf in _leaves(part))
    if isinstance(result, Stacked):
        return tuple(leaf for name in result.__dataclass_fields__ for leaf in _leaves(getattr(result, name)))
    return (result,)


def assert_rows_match_singles(operation, *stacks):
    """Row k of operation(*stacks) equals operation on the k-th instances
    bit for bit, for every k."""
    stacked = _leaves(operation(*stacks))
    for k in range(len(_leaves(stacks[0])[0])):
        single = _leaves(operation(*(s[k] for s in stacks)))
        assert len(single) == len(stacked), f"row {k}"
        assert all(same_bits(np.asarray(x)[k], y) for x, y in zip(stacked, single)), f"row {k}"


class TestStackEqualsSingles:
    def test_pc_check(self):
        assert_rows_match_singles(pc_check, PC_PSD_ROWS)

    def test_to_operator_and_its_spectrum(self):
        assert_rows_match_singles(to_operator, PC_PSD_ROWS)
        assert_rows_match_singles(lambda rs: to_operator(rs).eigenvalues, PC_PSD_ROWS)
        assert_rows_match_singles(lambda rs: to_operator(rs).is_positive(), PC_PSD_ROWS)

    def test_hermitian_eigensystem(self):
        assert_rows_match_singles(lambda rs: hermitian_eigensystem(to_operator(rs).matrix), PC_PSD_ROWS)

    def test_outcome_probability(self):
        # preparations inside the ball, so that every direction is genuine
        rs = PC_PSD_ROWS / 3.0
        ns = np.roll(PC_PSD_ROWS, 1, axis=0)
        ns = np.where(np.linalg.norm(ns, axis=1, keepdims=True) > 0.1, ns, Z)
        ns = ns / np.sqrt(np.vecdot(ns, ns))[:, None]
        outcomes = np.where(np.arange(len(rs)) % 2, +1, -1)
        assert_rows_match_singles(outcome_probability, rs, ns, outcomes)

    def test_transverse_frame(self):
        r_hats = PIPELINE_ROWS[np.linalg.norm(PIPELINE_ROWS, axis=1) > 0.5]
        r_hats = r_hats / np.sqrt(np.vecdot(r_hats, r_hats))[:, None]
        assert_rows_match_singles(transverse_frame, r_hats)

    def test_predictability_circle(self):
        rs = PC_PSD_ROWS[pc_check(PC_PSD_ROWS).norm >= 1.0 - ATOL]
        assert_rows_match_singles(predictability_circle, rs)
        assert_rows_match_singles(lambda rs: predictability_circle(rs).sample(8), rs)

    def test_build_box(self):
        assert_rows_match_singles(build_box, PIPELINE_ROWS)

    def test_overlap_and_clonability(self):
        rps = PC_PSD_ROWS[::-1]
        assert_rows_match_singles(overlap, PC_PSD_ROWS, rps)
        assert_rows_match_singles(clonability_check, PC_PSD_ROWS, rps)

    def test_hyperplane_pair_and_its_measurement(self):
        rs, ys, zs = DISCRIMINATION_DRAWS
        # resources on and within 1e-6 of the z axis take the other branch
        # of transverse_frame
        rs = np.concatenate((rs, [2.0 * Z, -1.5 * Z, [1e-7, 0.0, 2.0], [0.0, -1e-7, -1.5]]))
        ys, zs = np.concatenate((ys, [0.6, 0.0, 0.6, 0.2])), np.concatenate((zs, [0.0, -0.3, 0.0, -0.3]))
        labels = np.where(np.arange(len(rs)) % 3, +1, -1)
        hidden = np.where(np.arange(len(rs)) % 5, -1, +1)
        pairs = hyperplane_pair

        assert_rows_match_singles(pairs, rs, ys, zs)
        assert_rows_match_singles(discrimination_povm, rs)
        assert_rows_match_singles(lambda *a: detection_probabilities(pairs(*a[:3]), a[3]), rs, ys, zs, hidden)
        assert_rows_match_singles(lambda *a: discriminate(pairs(*a[:3]), a[3]), rs, ys, zs, hidden)
        # labels that differ from the hidden state exercise the deviation
        clone = lambda *a: clone_protocol(pairs(*a[:3]), a[3], a[4])  # noqa: E731
        assert_rows_match_singles(clone, rs, ys, zs, labels, hidden)


class TestChshStackEqualsSingles:
    def test_chsh_settings_for(self):
        assert_rows_match_singles(chsh_settings_for, STRENGTHS)
        assert_rows_match_singles(lambda rs: chsh_settings_for(rs.tolist()), STRENGTHS)

    def test_chsh_value(self):
        assert_rows_match_singles(chsh_value, CHSH_BOXES, CHSH_SETTINGS)

    def test_joint_distribution(self):
        # a = a1 of each row, b = b2 of the row before
        a, b = CHSH_SETTINGS.a1, np.roll(CHSH_SETTINGS.b2, 1, axis=0)
        assert_rows_match_singles(joint_distribution, CHSH_BOXES, a, b)

    def test_setting_tables_and_signalling(self):
        assert_rows_match_singles(setting_tables, CHSH_BOXES, CHSH_SETTINGS)
        assert_rows_match_singles(lambda *a: signalling_deviation(setting_tables(*a)), CHSH_BOXES, CHSH_SETTINGS)

    @pytest.mark.parametrize("tsirelson", [False, True])
    def test_chsh_experiment(self, tsirelson):
        # strength 0, a square that underflows to 0, and both sides of sqrt(2)
        strengths = np.array([0.0, 1e-320, SQRT2, np.nextafter(SQRT2, 2.0), 2.0, 3.0])
        assert_rows_match_singles(lambda rs: chsh_experiment(rs, tsirelson=tsirelson), along_z(strengths))


# States drawn as criterion 7 draws them, at seed 42 + d for d = 2..8: per
# epsilon the uniform tail and three random ones, random bases and phases
HIGHDIM_DIMS = range(2, 9)
HIGHDIM_DRAWS = {dim: acceptance._highdim_grid_draws(np.random.default_rng(SEED + dim), dim) for dim in HIGHDIM_DIMS}


def _violating_states(dim):
    epsilons, tails, bases, _ = HIGHDIM_DRAWS[dim]
    return build_violating_state(dim, epsilons, lambdas=tails, basis=bases)


@pytest.mark.parametrize("dim", HIGHDIM_DIMS)
class TestHighdimStackEqualsSingles:
    def test_build_violating_state(self, dim):
        epsilons, tails, bases, _ = HIGHDIM_DRAWS[dim]
        build = lambda *a: build_violating_state(dim, a[0], lambdas=a[1], basis=a[2])  # noqa: E731
        assert_rows_match_singles(build, epsilons, tails, bases)
        assert_rows_match_singles(lambda eps: build_violating_state(dim, eps), epsilons)
        assert_rows_match_singles(lambda vs: vs.spectrum, _violating_states(dim))

    def test_stack_item_is_the_instance(self, dim):
        epsilons, tails, bases, _ = HIGHDIM_DRAWS[dim]
        states = _violating_states(dim)
        for k in range(len(epsilons)):
            single = build_violating_state(dim, epsilons[k], lambdas=tails[k], basis=bases[k])
            assert all(same_bits(x, y) for x, y in zip(_leaves(states[k]), _leaves(single))), f"row {k}"

    @pytest.mark.parametrize("target", [CERTAIN, NULL])
    def test_probes_and_their_detection(self, dim, target):
        epsilons, _, _, phases = HIGHDIM_DRAWS[dim]
        states = _violating_states(dim)
        assert_rows_match_singles(lambda eps: probe_magnitudes(dim, eps, target), epsilons)
        assert_rows_match_singles(lambda vs: build_probe_state(vs, target), states)
        assert_rows_match_singles(lambda vs, ph: build_probe_state(vs, target, phases=ph), states, phases)
        probes = build_probe_state(states, target, phases=phases)
        assert_rows_match_singles(detection_probability, states, probes)
        assert_rows_match_singles(lambda vs, probe: discriminate_highdim(vs, target, probe), states, probes)

    def test_entangled_projector(self, dim):
        assert_rows_match_singles(entangled_projector, _violating_states(dim))

    @pytest.mark.parametrize("random_phases", [False, True], ids=["zero-phases", "random-phases"])
    def test_probe_experiment_on_one_state_is_a_stack_of_one(self, dim, random_phases):
        phases = HIGHDIM_DRAWS[dim][3] if random_phases else None
        states = _violating_states(dim)
        result = probe_experiment(states, phases)
        rows = range(len(states.epsilon))
        singles = [probe_experiment(states[k], None if phases is None else phases[k]) for k in rows]
        _assert_leaves_match(_instance_first(result), singles)
        # row 0 measures the certain probe, row 1 the null one
        certain, null, q1, pinning, detection = result
        for row, probe in enumerate((certain, null)):
            assert same_bits(q1[row], detection_probability(states, probe))
            assert same_bits(pinning[row], probe.pinning_dev)
            assert same_bits(detection[row], np.abs(q1[row] - probe.target))


def test_one_highdim_instance_gives_python_numbers():
    vs = build_violating_state(3, 0.5)
    probe = build_probe_state(vs, CERTAIN)
    assert type(vs.epsilon) is float and type(probe.pinning_dev) is float and type(probe.target) is int
    assert type(detection_probability(vs, probe)) is float and type(entangled_projector(vs)[1]) is float
    assert type(discriminate_highdim(vs, NULL, build_probe_state(vs, NULL))) is int


class TestOneBadHighdimRowFailsTheStack:
    """A bad row of a highdim stack raises the error that row's instance
    raises alone."""

    DIM = 4

    def _draws(self):
        return tuple(np.array(x) for x in HIGHDIM_DRAWS[self.DIM])

    @pytest.mark.parametrize("position", [0, 5, 15])
    def test_unnormalized_basis(self, position):
        epsilons, tails, bases, _ = self._draws()
        bases[position] *= 1.0 + 1e-6
        assert _error(lambda: build_violating_state(self.DIM, epsilons, lambdas=tails, basis=bases)) == _error(
            lambda: build_violating_state(self.DIM, epsilons[position], lambdas=tails[position], basis=bases[position])
        )

    @pytest.mark.parametrize("position", [1, 6, 14])
    def test_tail_off_its_sum(self, position):
        epsilons, tails, bases, _ = self._draws()
        tails[position, 0] += 1e-9
        error = _error(lambda: build_violating_state(self.DIM, epsilons, lambdas=tails, basis=bases))
        assert error == _error(lambda: build_violating_state(self.DIM, epsilons[position], lambdas=tails[position]))
        assert "sum to -epsilon" in error[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_phase(self, bad):
        epsilons, tails, bases, phases = self._draws()
        phases[9, 2] = bad
        states = build_violating_state(self.DIM, epsilons, lambdas=tails, basis=bases)
        assert _error(lambda: build_probe_state(states, CERTAIN, phases=phases)) == _error(
            lambda: build_probe_state(states[9], CERTAIN, phases=phases[9])
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_bad_epsilon(self, bad):
        epsilons = self._draws()[0]
        epsilons[3] = bad
        assert _error(lambda: build_violating_state(self.DIM, epsilons)) == _error(
            lambda: build_violating_state(self.DIM, bad)
        )
        assert _error(lambda: probe_magnitudes(self.DIM, epsilons, NULL)) == _error(
            lambda: probe_magnitudes(self.DIM, bad, NULL)
        )


# 24 rows of criterion 9 (norms in (0, 3)) against 24 of criterion 3, as a
# flat (24, ...) stack and as a (4, 6, ...) one
LEAD = (4, 6)
FLAT_RS, FLAT_RPS = PIPELINE_ROWS[:24], PC_PSD_ROWS[:24]
FLAT_DIRECTIONS = FLAT_RPS / np.sqrt(np.vecdot(FLAT_RPS, FLAT_RPS))[:, None]
FLAT_PAIR_DRAWS = tuple(d[:24] for d in DISCRIMINATION_DRAWS)


def _norm_settings(rs):
    return chsh_settings_for(pc_check(rs).norm)


@pytest.mark.parametrize(
    "operation, flat",
    [
        (pc_check, (FLAT_RS,)),
        (to_operator, (FLAT_RS,)),
        (lambda rs, ns: outcome_probability(rs, ns, +1), (FLAT_RS / 3.0, FLAT_DIRECTIONS)),
        (overlap, (FLAT_RS, FLAT_RPS)),
        (clonability_check, (FLAT_RS, FLAT_RPS)),
        (hyperplane_pair, FLAT_PAIR_DRAWS),
        (build_box, (FLAT_RS,)),
        (hermitian_eigensystem, (to_operator(FLAT_RS).matrix,)),
        (lambda m: partial_trace(m, (2, 2), keep=1), (build_box(FLAT_RS).state.matrix,)),
        (from_operator, (to_operator(FLAT_RS).matrix,)),
        (violates_pc, (to_operator(FLAT_RS).matrix,)),
        (chsh_settings_for, (pc_check(FLAT_RS).norm,)),
        (lambda rs: chsh_value(build_box(rs), _norm_settings(rs)), (FLAT_RS,)),
        (chsh_experiment, (FLAT_RS,)),
        (lambda rs: chsh_experiment(rs, tsirelson=True), (FLAT_RS,)),
    ],
    ids=[
        "pc_check",
        "to_operator",
        "outcome_probability",
        "overlap",
        "clonability_check",
        "hyperplane_pair",
        "build_box",
        "hermitian_eigensystem",
        "partial_trace",
        "from_operator",
        "violates_pc",
        "chsh_settings_for",
        "chsh_value",
        "chsh_experiment",
        "chsh_experiment-tsirelson",
    ],
)
def test_any_leading_axes_give_the_flat_stack(operation, flat):
    """A (4, 6, ...) stack gives, leaf by leaf, the result of its flat (24,
    ...) stack reshaped, bit for bit."""
    stacked = _leaves(operation(*(x.reshape(LEAD + x.shape[1:]) for x in flat)))
    flat_leaves = _leaves(operation(*flat))
    assert len(stacked) == len(flat_leaves)
    for x, y in zip(stacked, flat_leaves):
        assert same_bits(x, np.reshape(y, LEAD + np.shape(y)[1:]))


def test_expectation_copies_a_broadcast_operand():
    # one box against four operators each: the pairings on the box repeated
    # four times, bit for bit
    rho = CHSH_BOXES.state.matrix
    ops = _random_hermitian(np.random.default_rng(7), 4 * len(rho), 4).reshape(len(rho), 4, 4, 4)
    repeated = np.repeat(rho[:, None], 4, axis=1)
    assert same_bits(expectation(ops, rho[:, None]), expectation(ops, repeated))
    assert same_bits(expectation(ops[:1], rho[:, None]), expectation(np.repeat(ops[:1], len(rho), axis=0), repeated))


def test_more_leading_axes_keep_the_component_check():
    with pytest.raises(ValueError, match="must have 3 components, got shape \\(2, 2, 4\\)"):
        pc_check(np.zeros((2, 2, 4)))


# both hidden labels at once: against a stack of pairs as a column, against
# one pair as a row
BOTH_LABELS = np.array([[+1], [-1]])


def _assert_leaves_match(stacked, singles):
    """Entry k of every leaf of ``stacked`` is the leaf of ``singles[k]``,
    bit for bit."""
    stacked = _leaves(stacked)
    for k, single in enumerate(singles):
        single = _leaves(single)
        assert len(single) == len(stacked), f"entry {k}"
        assert all(same_bits(np.asarray(x)[k], y) for x, y in zip(stacked, single)), f"entry {k}"


def test_both_hidden_labels_on_a_stack_equal_the_per_label_calls():
    pairs = hyperplane_pair(*DISCRIMINATION_DRAWS)
    hidden = (+1, -1)
    _assert_leaves_match(detection_probabilities(pairs, BOTH_LABELS), [detection_probabilities(pairs, w) for w in hidden])
    both = discriminate(pairs, BOTH_LABELS)
    _assert_leaves_match(both, [discriminate(pairs, w) for w in hidden])
    # every third label wrong, so that the deviations are measured too
    claimed = np.where(np.arange(len(pairs.resource)) % 3, both[0], -both[0])
    _assert_leaves_match(
        clone_protocol(pairs, claimed, BOTH_LABELS), [clone_protocol(pairs, claimed[k], w) for k, w in enumerate(hidden)]
    )


def test_both_hidden_labels_on_one_pair_equal_the_single_calls():
    pair = hyperplane_pair(2.0 * Z, 0.6, 0.0)
    both = BOTH_LABELS[:, 0]
    _assert_leaves_match(detection_probabilities(pair, both), [detection_probabilities(pair, w) for w in both])
    _assert_leaves_match(discriminate(pair, both), [discriminate(pair, w) for w in both])
    _assert_leaves_match(clone_protocol(pair, -both, both), [clone_protocol(pair, -w, w) for w in both])


def _instance_first(result) -> tuple:
    """An experiment's result on a stack with the instance axis first: each
    (2, N) part of its new leading axis as (N, 2), its probes as they are."""
    return tuple(part if isinstance(part, Stacked) else np.moveaxis(part, 0, -1) for part in result)


def test_discrimination_experiment_on_one_pair_is_a_stack_of_one():
    pairs = hyperplane_pair(*DISCRIMINATION_DRAWS)
    singles = [discrimination_experiment(pairs[k]) for k in range(len(pairs.resource))]
    _assert_leaves_match(_instance_first(discrimination_experiment(pairs)), singles)


@pytest.mark.parametrize("stacked", [False, True], ids=["one-pair", "stack"])
def test_detection_deviation_is_the_worse_of_hit_and_miss(stacked):
    pairs = hyperplane_pair(*DISCRIMINATION_DRAWS) if stacked else hyperplane_pair(2.0 * Z, 0.6, 0.0)
    which, labels, q_plus, q_minus, deviation = discrimination_experiment(pairs)
    # row 0 hides r+, row 1 hides r-: one discriminate call per hidden label
    for row, hidden in enumerate((+1, -1)):
        label, plus, minus = discriminate(pairs, hidden)
        q_hit, q_miss = (plus, minus) if hidden == +1 else (minus, plus)
        assert np.all(which[row] == hidden)
        assert same_bits(labels[row], label) and same_bits(q_plus[row], plus) and same_bits(q_minus[row], minus)
        assert same_bits(deviation[row], np.maximum(np.abs(q_hit - 1.0), np.abs(q_miss)))


def test_norm_ranges_of_any_shape_give_the_flat_draw():
    lows = np.linspace(0.0, 2.5, 12).reshape(3, 4)
    rng, flat_rng = np.random.default_rng(SEED), np.random.default_rng(SEED)
    stacked = random_bloch_vector(rng, lows, lows + 0.5)
    flat = random_bloch_vector(flat_rng, lows.ravel(), lows.ravel() + 0.5)
    assert same_bits(stacked, flat.reshape(3, 4, 3))
    assert rng.bit_generator.state == flat_rng.bit_generator.state


def _tables(rs):
    return setting_tables(build_box(rs), chsh_settings_for(pc_check(rs).norm))


@pytest.mark.parametrize(
    "kernel",
    [
        pc_check,
        to_operator,
        build_box,
        discrimination_povm,
        lambda rs: hyperplane_pair(rs, [], []),
        lambda rs: chsh_settings_for(pc_check(rs).norm),
        lambda rs: chsh_value(build_box(rs), chsh_settings_for(pc_check(rs).norm)),
        _tables,
        lambda rs: signalling_deviation(_tables(rs)),
    ],
    ids=[
        "pc_check",
        "to_operator",
        "build_box",
        "discrimination_povm",
        "hyperplane_pair",
        "chsh_settings_for",
        "chsh_value",
        "setting_tables",
        "signalling_deviation",
    ],
)
def test_empty_stack_gives_empty_results(kernel):
    def leaves(value):
        if isinstance(value, Stacked):
            return [leaf for name in value.__dataclass_fields__ for leaf in leaves(getattr(value, name))]
        return [value]

    assert all(np.shape(leaf)[0] == 0 for leaf in leaves(kernel(np.empty((0, 3)))))


def test_one_instance_gives_python_numbers():
    pair = hyperplane_pair(2.0 * Z, 0.6, 0.0)
    check, box = pc_check(Z), build_box(Z)
    label, q_plus, q_minus = discriminate(pair, -1)
    out, dev = clone_protocol(pair, +1, -1)
    assert type(check.satisfied) is bool and type(clonability_check(Z, Z)) is bool
    assert type(label) is int
    floats = [check.norm, check.mean_square_sum, box.r, box.closed_form_dev, box.unitarity_dev, q_plus, q_minus, dev]
    floats += [outcome_probability(Z, Z, +1), overlap(Z, Z), *detection_probabilities(pair, +1)]
    floats += [chsh_value(box, TSIRELSON_SETTINGS), signalling_deviation(setting_tables(box, TSIRELSON_SETTINGS))]
    assert all(type(x) is float for x in floats)
    assert type(joint_distribution(box, Z, Z).valid) is bool
    assert isinstance(out, QuasiState) and out.matrix.shape == (4, 4)


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
        to_operator(PC_PSD_ROWS).matrix,
        to_operator(PIPELINE_ROWS).matrix,
        _random_hermitian(np.random.default_rng(5), 200, 3),
        _random_hermitian(np.random.default_rng(6), 200, 4),
        # a zero pivot candidate in the first row: the rule skips to the next
        np.array([np.diag([1.0, 2.0, 3.0]), [[0, 0, 0], [0, 1, 1j], [0, -1j, 1]]], dtype=complex),
    ],
    ids=["criterion-3", "criterion-9", "dim-3", "dim-4", "sparse"],
)
def test_batched_phase_rule_matches_the_column_loop(matrices):
    eig = hermitian_eigensystem(matrices)
    if matrices.shape[-1] == 2:
        # the closed form of d = 2, against LAPACK within its bound
        assert_qubit_eigensystem(matrices, eig)
        return
    for k, m in enumerate(matrices):
        vals, vecs = _eigensystem_loop(m)
        assert same_bits(eig.eigenvalues[k], vals) and same_bits(eig.eigenvectors[k], vecs), f"matrix {k}"


def _error(call):
    with pytest.raises(ValueError) as info:
        call()
    return type(info.value), str(info.value)


class TestOneBadRowFailsTheBatch:
    """A bad row raises the error of the call on its instance, wherever it
    sits."""

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize(
        "bad", [[np.nan, 0.0, 0.0], [0.0, np.inf, 1.0], [0.0, 1.0, -np.inf]], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_component(self, position, bad):
        rs = PC_PSD_ROWS[:8].copy()
        rs[position] = bad
        rps = PC_PSD_ROWS[8:16]
        for operation in (pc_check, to_operator, build_box, discrimination_povm):
            assert _error(lambda: operation(rs)) == _error(lambda: operation(np.array(bad)))
        assert _error(lambda: overlap(rs, rps)) == _error(lambda: overlap(np.array(bad), rps[0]))
        assert _error(lambda: hyperplane_pair(rs, np.zeros(8), np.zeros(8))) == _error(
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
            outcome_probability(rs, ns, +1)
        with pytest.raises(InvalidDirectionError) as single:
            outcome_probability(rs[1], Z, +1)
        assert str(batched.value) == str(single.value)

    def test_bad_labels(self):
        pairs = hyperplane_pair(*(d[:3] for d in DISCRIMINATION_DRAWS))
        pair = pairs[1]
        assert _error(lambda: detection_probabilities(pairs, [1, 0, -1])) == _error(
            lambda: detection_probabilities(pair, 0)
        )
        bad_label = _error(lambda: clone_protocol(pairs, [1, 2, -1], -1))
        assert bad_label == _error(lambda: clone_protocol(pair, 2, -1))

    @pytest.mark.parametrize("position", [0, 3, 6])
    def test_non_unit_setting_or_direction(self, position):
        settings = [chsh_settings_for(r) for r in STRENGTHS]
        fields = {name: np.array([getattr(s, name) for s in settings]) for name in ("a1", "a2", "b1", "b2")}
        fields["b1"][position] *= 1.5
        single = {name: v[position] for name, v in fields.items()}
        assert _error(lambda: ChshSettings(**fields)) == _error(lambda: ChshSettings(**single))
        boxes = CHSH_BOXES[np.arange(len(STRENGTHS))]
        a, b = fields["a1"], fields["b1"]
        assert _error(lambda: joint_distribution(boxes, a, b)) == _error(
            lambda: joint_distribution(boxes[position], a[position], b[position])
        )

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_strength(self, bad):
        rs = STRENGTHS.copy()
        rs[2] = bad
        assert _error(lambda: chsh_settings_for(rs)) == _error(lambda: chsh_settings_for(bad))

    def test_preparation_inside_the_ball_has_no_circle(self):
        # the one operation whose single call does not raise: it returns None
        rs = np.array([[0.0, 0.0, 2.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.5]])
        assert predictability_circle(rs[1]) is None
        with pytest.raises(ValueError, match="no certain direction for norm 0.5 < 1"):
            predictability_circle(rs)
