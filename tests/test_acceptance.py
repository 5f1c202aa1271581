"""Acceptance suite: every numbered criterion at its stated tolerance,
one pass/fail line printed per criterion. The default-seed criteria come
from the one ``run_all`` of the session (see conftest.py)."""

import pytest

from quasilab import acceptance, nonlocal_box, operators
from quasilab.reporting import CheckResult


def _check(criterion):
    print(criterion.line())
    for sub in criterion.checks:
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
    # the diagonal three-level example is classified as satisfying the bound
    _check(_criterion(verify_all_criteria, 8))


def test_criterion_9_pipeline_oracle(verify_all_criteria):
    # 10^3 random resources: pipeline equals closed form within 1e-10, gates unitary within 1e-12
    _check(_criterion(verify_all_criteria, 9))


@pytest.mark.parametrize("seed", [7, 123])
def test_randomized_criteria_hold_for_other_seeds(seed):
    for criterion in (
        acceptance.pc_psd_equivalence_criterion(seed, samples=2000),
        acceptance.predictability_witness_criterion(seed, samples=200),
        acceptance.clonability_criterion(seed, samples=2000),
        acceptance.discrimination_criterion(seed, samples=200),
        acceptance.pipeline_oracle_criterion(seed, samples=200),
    ):
        _check(criterion)


# Ceilings on the numpy calls of one run_all(DEFAULT_SEED), each set at the
# count measured when it was last changed. A change that lowers a count
# lowers its ceiling with it; no change raises one.
NUMPY_CALL_CEILINGS = {"eigvalsh": 10_001, "eigh": 1_009, "kron": 9_232}


def test_numpy_calls_within_ceilings(verify_all_run):
    _, calls = verify_all_run
    for name, ceiling in NUMPY_CALL_CEILINGS.items():
        assert calls[name] <= ceiling, f"{name}: {calls[name]} calls, ceiling {ceiling}"


def test_criterion_6_measures_each_hidden_state_once(discrimination_calls):
    acceptance.discrimination_criterion(samples=5)
    assert discrimination_calls == {"detection_probabilities": 2 * 5, "discrimination_povm": 5}


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
    criterion = acceptance.pc_psd_equivalence_criterion(samples=1000)
    assert [c.name for c in criterion.checks if not c.passed] == ["classification-disagreements"]


def test_invariant_failure_is_a_failed_check(monkeypatch):
    # a pipeline that misses its closed form fails criterion 1 instead of raising
    closed_form_box = nonlocal_box.closed_form_box
    monkeypatch.setattr(nonlocal_box, "closed_form_box", lambda r: closed_form_box(r) + 1.0)
    criterion = acceptance.chsh_law_criterion()
    assert [c.name for c in criterion.checks if not c.passed] == ["closed-form-match"]


def test_criterion_9_reads_the_gates_unitarity(non_unitary_gates):
    criterion = acceptance.pipeline_oracle_criterion(samples=8)
    assert [c.name for c in criterion.checks if not c.passed] == ["pipeline-unitarity"]
