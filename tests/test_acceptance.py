"""Acceptance suite: every numbered criterion at its stated tolerance,
one pass/fail line printed per criterion. The default-seed criteria come
from the one ``run_all`` of the session (see conftest.py)."""

import collections
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import ScaledDraws
from quasilab import acceptance, bloch, discrimination, highdim, nonlocal_box, operators
from quasilab.reporting import CheckResult


def _check(criterion):
    print(criterion.line())
    _check_all(criterion.checks)


def _check_all(checks):
    for sub in checks:
        assert sub.passed, sub.line()


def _criterion(criteria, number):
    criterion = criteria[number - 1]
    assert criterion.number == number
    return criterion


def test_criterion_1_chsh_law(verify_all_criteria):
    # <B> = 2*sqrt(2)*r within 1e-9 on the grid up to sqrt(2); Tsirelson at r = 1
    _check(_criterion(verify_all_criteria, 1))


def test_criterion_2_maximal_box(verify_all_criteria):
    # <B> = 4 within 1e-9 for r in {1.5, 2, 3}, all joint probabilities valid, non-signalling
    _check(_criterion(verify_all_criteria, 2))


def test_criterion_3_pc_psd_equivalence(verify_all_criteria):
    # 10^4 random vectors: norm bound and spectrum classification never disagree
    _check(_criterion(verify_all_criteria, 3))


def test_criterion_4_predictability_witness(verify_all_criteria):
    # 10^3 random norm > 1 vectors: two non-colinear certain directions each
    _check(_criterion(verify_all_criteria, 4))


def test_criterion_5_clonability_fixed_point(verify_all_criteria):
    # 10^4 random pairs agree with the trace fixed-point test; exact instances hit both planes
    _check(_criterion(verify_all_criteria, 5))


def test_criterion_6_perfect_discrimination(verify_all_criteria):
    # 10^3 admissible instances: detection probabilities exactly 1 within 1e-10,
    # strictly positive overlap, clone output exact within 1e-12
    _check(_criterion(verify_all_criteria, 6))


def test_criterion_7_highdim_grid(verify_all_criteria):
    # d in 2..6, epsilon in {0.1, 0.5, 1, 2}, uniform + 3 random tails, zero + random
    # phases: pinning within 1e-12, detection within 1e-10; d=3 eps=0.5 weights
    # exactly 5/7, 1/7
    _check(_criterion(verify_all_criteria, 7))


def test_criterion_8_cross_consistency(verify_all_criteria):
    # dim-2 doubled-basis machinery matches the qubit protocol within 1e-10;
    # the diagonal three-level example is classified as satisfying the bound,
    # and its Gershgorin bound (0.85) stays below 1
    _check(_criterion(verify_all_criteria, 8))


def test_criterion_9_pipeline_oracle(verify_all_criteria):
    # 10^3 random resources: pipeline equals closed form within 1e-10, gates unitary within 1e-12
    _check(_criterion(verify_all_criteria, 9))


# The randomized qubit criteria, each drawn in bulk.
BULK_DRAWN = [
    acceptance.pc_psd_equivalence_criterion,
    acceptance.predictability_witness_criterion,
    acceptance.clonability_criterion,
    acceptance.discrimination_criterion,
    acceptance.pipeline_oracle_criterion,
]


@pytest.mark.parametrize("seed", [7, 123])
def test_randomized_criteria_hold_for_other_seeds(seed):
    for checks in (
        acceptance.pc_psd_equivalence_criterion(seed, samples=2000),
        acceptance.predictability_witness_criterion(seed, samples=200),
        acceptance.clonability_criterion(seed, samples=2000),
        acceptance.discrimination_criterion(seed, samples=200),
        acceptance.pipeline_oracle_criterion(seed, samples=200),
    ):
        _check_all(checks)


@pytest.mark.parametrize("seed", range(10))
def test_bulk_drawn_criteria_hold_at_their_sample_counts(seed):
    # criteria 4, 5, 6 and 9, whose checks measure the instances drawn
    for criterion in BULK_DRAWN[1:]:
        _check_all(criterion(seed))


# Ceilings on the calls of one run_all(DEFAULT_SEED) to numpy's
# eigendecompositions and vector norm and to the package's kron and
# expectation, each set at the count measured when it was last changed. A
# change that lowers a count lowers its ceiling with it; no change raises
# one. No criterion calls norm: the random Bloch vectors are normalized on
# the stack, and criterion 8 bounds its three-level example in closed form
# instead of sampling kets.
CALL_CEILINGS = {"eigvalsh": 1, "eigh": 0, "norm": 0, "kron": 22, "expectation": 8}


def test_numpy_calls_within_ceilings(verify_all_run):
    _, calls = verify_all_run
    for name, ceiling in CALL_CEILINGS.items():
        assert calls[name] <= ceiling, f"{name}: {calls[name]} calls, ceiling {ceiling}"


@pytest.mark.parametrize("criterion", BULK_DRAWN, ids=lambda criterion: criterion.__name__)
def test_numpy_calls_do_not_grow_with_samples(criterion, count_calls):
    # the randomized criteria compute on the stack of their samples
    counts = []
    for samples in (10, 1000):
        with count_calls() as calls:
            criterion(samples=samples)
        counts.append(calls)
    assert counts[0] == counts[1]


class _CountingGenerator:
    """A generator that counts the calls made to each of its methods."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("criterion", BULK_DRAWN, ids=lambda criterion: criterion.__name__)
def test_generator_calls_do_not_grow_with_samples(criterion, monkeypatch):
    # the randomized qubit criteria draw in bulk: one call per kind of draw
    default_rng = np.random.default_rng
    counts = []
    for samples in (10, 1000):
        calls = collections.Counter()
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _CountingGenerator(default_rng(seed), calls))
        criterion(samples=samples)
        counts.append(calls)
    assert set(counts[0]) == set(counts[1]) <= {"random", "uniform", "standard_normal"}
    redraws = {}
    if criterion is acceptance.pc_psd_equivalence_criterion:
        # criterion 3 draws its band's excesses again, all at once, while
        # one lies within 1e-14 of the flip (one excess in 300): rounds that
        # depend on the values drawn, not on their number, such as the one
        # round of 1000 samples at the default seed
        redraws = {"uniform": 2}
    for kind in counts[0]:
        assert abs(counts[1][kind] - counts[0][kind]) <= redraws.get(kind, 0), kind


@pytest.mark.parametrize("loud", [False, True], ids=["drawn", "first-round-rejected"])
def test_criterion_7_draws_each_dimension_in_bulk(monkeypatch, loud):
    # per dimension one call per kind of draw: the random tails' weights and
    # their jitter, once and again per round of redraws, then the bases'
    # normals and the phases; d = 2 draws no tail. Jitter ten times as wide
    # in the first tails drawn rejects some of them, so d = 3 draws twice
    calls, draw = [], acceptance._highdim_grid_draws

    def counted(rng, dim):
        calls.append(collections.Counter())
        return draw(_CountingGenerator(rng, calls[-1]), dim)

    default_rng = np.random.default_rng
    if loud:
        monkeypatch.setattr(np.random, "default_rng", lambda seed: ScaledDraws(default_rng(seed), "normal", 24, 10.0))
    monkeypatch.setattr(acceptance, "_highdim_grid_draws", counted)
    acceptance.highdim_grid_criterion()
    rounds = [1 + (loud and dim == 3) for dim in range(3, 7)]
    assert calls == [{"standard_normal": 1, "uniform": 1}] + [
        {"dirichlet": n, "normal": n, "standard_normal": 1, "uniform": 1} for n in rounds
    ]


# The most memory (MB, numpy's arrays included, as tracemalloc counts it)
# one call of each criterion that builds large stacks holds above what it
# held before, as measured once their full-size copies were taken out (the
# parent measured 2.733, 2.669 and 3.140). Criterion 3 builds 10,000 qubit
# operators, 0.64 MB as one stack; criterion 6 the two-qubit POVMs and joint
# operators of 1,000 pairs, 0.51 MB per two-label stack; criterion 9 1,000
# boxes through (4, 4, 4, 1000) product terms, 1 MB. A copy of criterion 3's
# or 6's stack exceeds its bound of 10 % above the measured peak, and so
# would criterion 9 holding its gates through the box's products again.
TRANSIENT_PEAK_MB = {3: 1.542, 6: 1.619, 9: 2.627}
LARGE_STACK_CRITERIA = {
    3: acceptance.pc_psd_equivalence_criterion,
    6: acceptance.discrimination_criterion,
    9: acceptance.pipeline_oracle_criterion,
}


@pytest.mark.parametrize("number", sorted(TRANSIENT_PEAK_MB))
def test_large_stacks_are_held_without_full_size_copies(number):
    criterion = LARGE_STACK_CRITERIA[number]
    criterion()  # imports and numpy's caches are warm
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        criterion()
        peak_mb = (tracemalloc.get_traced_memory()[1] - held) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak_mb <= 1.1 * TRANSIENT_PEAK_MB[number], peak_mb


def test_criterion_6_measures_each_hidden_state_once(discrimination_calls):
    acceptance.discrimination_criterion(samples=5)
    assert discrimination_calls == {"detection_probabilities": 2 * 5, "discrimination_povm": 5}


def test_criterion_6_measures_both_hidden_states_in_one_call(calls_to):
    # discrimination_experiment measures, and the criterion clones what it named
    measured = calls_to(discrimination, ["discriminate"])
    cloned = calls_to(acceptance, ["clone_protocol"])
    acceptance.discrimination_criterion(samples=5)
    assert {**measured, **cloned} == {"discriminate": 1, "clone_protocol": 1}


def test_criterion_7_stacks_each_dimension(calls_to):
    # one stack of 16 states per dimension d = 2..6: one build, one
    # projector and one probe_experiment, which builds and measures the
    # four probe families two at a time: the certain and the null probes,
    # each with zero and with drawn phases on one leading axis
    built = calls_to(acceptance, ["build_violating_state", "entangled_projector", "probe_experiment"])
    probed = calls_to(highdim, ["build_probe_state", "detection_probability"])
    acceptance.highdim_grid_criterion()
    assert {**built, **probed} == {
        "build_violating_state": 5,
        "entangled_projector": 5,
        "probe_experiment": 5,
        "build_probe_state": 10,
        "detection_probability": 10,
    }


def test_worst_is_the_check_nearest_its_bound(verify_all_criteria):
    # overlap-strictly-positive has the largest measured value, but it is far
    # above its bound of 0; deterministic-detection is nearest its own bound
    line = _criterion(verify_all_criteria, 6).line()
    assert "(worst=deterministic-detection, " in line
    # a failing check comes first, whatever its headroom
    checks = [CheckResult.at_most("near", 0.9, 1.0), CheckResult.at_most("over", 1.0, 0.5)]
    assert "(worst=over, " in acceptance.Criterion(0, "mixed", checks).line()


@pytest.mark.parametrize("psd_atol", [1e-9, 1e-12])
def test_criterion_3_samples_the_flip_band(monkeypatch, psd_atol):
    # a spectrum verdict at PSD_ATOL flips at |r| = 1 + 2 PSD_ATOL, away from
    # the norm verdict at 1 + ATOL: only vectors within a few ATOL of |r| = 1
    # show it
    monkeypatch.setattr(operators, "PSD_ATOL", psd_atol)
    checks = acceptance.pc_psd_equivalence_criterion(samples=1000)
    assert [c.name for c in checks if not c.passed] == ["classification-disagreements"]


@pytest.fixture
def drawn_norms(monkeypatch):
    """The norms the random Bloch vectors drawn while the test runs are
    scaled to: one array per ``scale_directions`` call."""
    drawn, original = [], bloch.scale_directions

    def scale_directions(normals, norms):
        drawn.append(np.array(norms, dtype=float))
        return original(normals, norms)

    for module in (acceptance, bloch):
        monkeypatch.setattr(module, "scale_directions", scale_directions)
    return drawn


@pytest.mark.parametrize("seed", range(10))
def test_criterion_3_report_does_not_depend_on_its_draws(drawn_norms, seed):
    # criterion 3's one check is a count that is 0 whatever instances are
    # drawn; and the bulk draws keep the band design
    [check] = acceptance.pc_psd_equivalence_criterion(seed)
    assert (check.name, check.passed, check.measured, check.tolerance) == ("classification-disagreements", True, 0, 0)
    [norms] = drawn_norms
    assert norms.shape == (10_000,)
    band, others = norms[::10], np.delete(norms, np.s_[::10])
    # 1 + excess is rounded to the doubles near 1, and so is 1 + ATOL: each
    # distance below may differ from the excess's own by one spacing
    spacing = np.spacing(1.0)
    assert np.all(np.abs(band - 1.0) <= 3 * operators.ATOL + spacing)
    assert np.all(np.abs(band - (1.0 + operators.ATOL)) > 1e-14 - spacing)
    assert np.all((others >= 0.0) & (others < 3.0))


@pytest.mark.parametrize("seed", range(10))
def test_bulk_draws_keep_their_ranges(drawn_norms, seed):
    # criteria 4, 5, 6 and 9 at their sample counts
    rng = np.random.default_rng(seed)
    acceptance._witness_draws(rng, 1000)
    acceptance._clonability_draws(rng, 10_000)
    hyperplane_draws = [acceptance._admissible_draws(rng, samples)[1:] for samples in (100, 1000)]
    acceptance._pipeline_draws(rng, 1000)
    witness, pairs, *admissible, pipeline = drawn_norms
    assert np.all((witness >= 1.0 + 1e-6) & (witness < 3.0))
    assert pairs.shape == (10_000, 2)
    assert np.all((pairs >= 0.0) & (pairs < 3.0))
    # criteria 5 and 6: every instance admissible to hyperplane_pair
    for norms, (y, z) in zip(admissible, hyperplane_draws, strict=True):
        assert np.all((norms >= 1.05) & (norms < 3.0))
        assert np.all(y**2 + z**2 <= 1.0 - 1.0 / norms**2 + operators.ATOL)
    inside = np.arange(1000) % 4 == 0
    assert np.all(pipeline[inside] < 1.0)
    assert np.all(pipeline[~inside] >= 1.0 + 1e-9)


def test_invariant_failure_is_a_failed_check(monkeypatch):
    # a pipeline that misses its closed form fails criterion 1 instead of raising
    closed_form_box = nonlocal_box.closed_form_box
    monkeypatch.setattr(nonlocal_box, "closed_form_box", lambda r: closed_form_box(r) + 1.0)
    checks = acceptance.chsh_law_criterion()
    assert [c.name for c in checks if not c.passed] == ["closed-form-match"]


def test_criterion_9_reads_the_gates_unitarity(non_unitary_gates):
    checks = acceptance.pipeline_oracle_criterion(samples=8)
    assert [c.name for c in checks if not c.passed] == ["pipeline-unitarity"]


entries = st.floats(-10.0, 10.0, allow_subnormal=False)


def _hermitian(parts):
    m = parts[0] + 1j * parts[1]
    return (m + m.conj().T) / 2


def _unit_ket(parts):
    ket = parts[0] + 1j * parts[1]
    return ket / np.linalg.norm(ket)


# rounding allowance of one comparison: a few ulps of the matrix's scale
def _slack(m):
    return 8 * np.finfo(float).eps * (1.0 + np.abs(m).sum())


@settings(max_examples=300)
@given(
    arrays(float, (2, 3, 3), elements=entries).map(_hermitian),
    arrays(float, (2, 3), elements=entries).filter(lambda v: np.linalg.norm(v) > 1e-3).map(_unit_ket),
)
def test_criterion_8_gershgorin_bound_is_sound(m, ket):
    # every quadratic form on a unit ket and the top eigenvalue lie below it
    bound = acceptance._gershgorin_bound(m)
    form = float(np.real(ket.conj() @ m @ ket))
    assert form <= bound + _slack(m)
    assert np.linalg.eigvalsh(m)[-1] <= bound + _slack(m)


@given(st.lists(entries, min_size=3, max_size=3))
@example([0.85, 0.25, -0.1])  # criterion 8's three-level example
def test_criterion_8_gershgorin_bound_of_a_diagonal_is_its_largest_entry(diagonal):
    assert acceptance._gershgorin_bound(np.diag(diagonal)) == max(diagonal)
