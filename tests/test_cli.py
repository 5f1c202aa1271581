"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from quasilab import acceptance, cli, discrimination, highdim, nonlocal_box
from quasilab.cli import build_parser, main
from quasilab.operators import ATOL, LAW_ATOL, SPECTRAL_ATOL
from quasilab.reporting import emit_report

SQRT2 = np.sqrt(2.0)


def readme_examples() -> list[list[str]]:
    """argv of each `quasilab ...` line in the README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("quasilab ")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, _, _ = run(capsys, "pc-check", "--r", "0,0,1")
        assert code == 0

    def test_failed_check_is_one(self, capsys):
        code, _, err = run(capsys, "pc-check", "--r", "0,0,2")
        assert code == 1
        assert "complementarity" in err

    def test_unknown_flag_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pc-check", "--bogus"])
        assert exc.value.code == 2

    def test_domain_error_is_two(self, capsys):
        code, _, err = run(capsys, "planes", "--r", "0,0,0.5")
        assert code == 2
        assert "error:" in err

    def test_malformed_vector_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pc-check", "--r", "1,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "-3"],
            ["discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "0"],
            ["planes", "--r", "0,0,2", "--points", "0"],
            ["chsh-sweep", "--r-min", "1", "--r-max", "2", "--steps", "0"],
        ],
        ids=lambda argv: " ".join(argv[-2:]),
    )
    def test_count_below_one_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}:" in capsys.readouterr().err


class TestInvariantFailures:
    """A construction that measures a deviation past its tolerance gives a
    failed check: exit 1, the full report, the failing check on stderr."""

    @pytest.fixture
    def closed_form_off_by_one(self, monkeypatch):
        closed_form_box = nonlocal_box.closed_form_box
        monkeypatch.setattr(nonlocal_box, "closed_form_box", lambda r: closed_form_box(r) + 1.0)

    @pytest.fixture
    def measurement_favours_minus(self, monkeypatch):
        # the one measurement inside discriminate, giving outcome
        # probabilities (0.3, 0.7) whatever the hidden state
        favours_minus = discrimination.DiscriminationPovm(p_plus=0.3 * np.eye(4), p_minus=0.7 * np.eye(4))
        monkeypatch.setattr(discrimination, "discrimination_povm", lambda r: favours_minus)

    def test_box_closed_form_mismatch(self, capsys, closed_form_off_by_one):
        code, out, err = run(capsys, "box", "--r", "0,0,2", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["outputs"]["chsh"] == pytest.approx(4.0)
        [measured] = [c["measured"] for c in payload["checks"] if c["name"] == "closed-form-match"]
        assert measured == pytest.approx(1.0)
        assert err.strip() == "failed checks: closed-form-match"

    def test_box_non_unitary_gates(self, capsys, non_unitary_gates):
        code, out, err = run(capsys, "box", "--r", "0,0,2", "--format", "json")
        assert code == 1
        [measured] = [c["measured"] for c in json.loads(out)["checks"] if c["name"] == "pipeline-unitarity"]
        assert measured == pytest.approx(3.0)  # |2^2 - 1| on the local basis change
        assert err.strip() == "failed checks: pipeline-unitarity"

    def test_chsh_sweep_closed_form_mismatch(self, capsys, closed_form_off_by_one):
        code, out, err = run(capsys, "chsh-sweep", "--r-min", "1", "--r-max", "2", "--steps", "3")
        assert code == 1
        assert out.splitlines()[0] == "r,chsh,valid"
        assert err.strip() == "failed checks: closed-form-match"

    def test_highdim_unpinned_probe(self, capsys, monkeypatch):
        monkeypatch.setattr(highdim, "probe_magnitudes", lambda dim, epsilon, target: np.full(dim, 1.0 / dim))
        code, out, err = run(capsys, "highdim", "--d", "3", "--epsilon", "0.5", "--format", "json")
        assert code == 1
        assert json.loads(out)["outputs"]["leading_weight_certain"] == pytest.approx(1 / 3)
        assert "probe-pinning" in err

    def test_discriminate_wrong_label(self, capsys, measurement_favours_minus):
        code, out, err = run(capsys, "discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "20")
        assert code == 1
        payload = json.loads(out)
        assert 0 < payload["outputs"]["correct"] < 20
        # the check judges the measurement that produced the labels
        [measured] = [c["measured"] for c in payload["checks"] if c["name"] == "deterministic-detection"]
        assert measured == pytest.approx(0.7)
        assert err.strip() == "failed checks: deterministic-detection, all-trials-correct"

    def test_clone_of_the_wrong_state(self, capsys, measurement_favours_minus):
        code, out, err = run(capsys, "clone-demo", "--r", "0,0,2", "--y", "0.6", "--z", "0")
        assert code == 1
        assert json.loads(out)["outputs"]["label_plus"] == -1
        assert err.strip() == "failed checks: clone-output-exact"


class TestPcCheck:
    def test_boundary_passes(self, capsys):
        code, out, _ = run(capsys, "pc-check", "--r", "0,0,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["norm"] == pytest.approx(1.0)
        assert payload["checks"][0]["passed"] is True

    def test_verdict_is_the_comparison_it_prints(self, capsys):
        # |r| - 1 rounds to 1.00008890058e-12, just above ATOL
        code, out, err = run(capsys, "pc-check", "--r", "0,0,1.000000000001", "--format", "json")
        assert code == 1
        [check] = json.loads(out)["checks"]
        assert check["name"] == "complementarity"
        assert check["measured"] > check["tolerance"] == ATOL
        assert check["passed"] is False
        assert err.strip() == "failed checks: complementarity"

    def test_violation_reports_circle(self, capsys):
        _, out, _ = run(capsys, "pc-check", "--r", "0,0,2", "--format", "json")
        payload = json.loads(out)
        assert payload["outputs"]["certain_circle_center"] == pytest.approx([0, 0, 0.5])
        assert payload["outputs"]["certain_circle_radius"] == pytest.approx(np.sqrt(3) / 2)
        assert payload["outputs"]["min_eigenvalue"] == pytest.approx(-0.5)


class TestBox:
    def test_auto_settings_report(self, capsys):
        code, out, _ = run(capsys, "box", "--r", "0,0,1.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["chsh"] == pytest.approx(2 * SQRT2 * 1.2, abs=1e-9)
        assert payload["outputs"]["all_tables_valid"] is True

    def test_tsirelson_settings_forced(self, capsys):
        code, out, _ = run(capsys, "box", "--r", "0,0,2", "--settings", "tsirelson", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["chsh"] == pytest.approx(2 * SQRT2 * 2.0, abs=1e-9)
        # the diagonal settings beyond sqrt(2) leave the valid region
        assert payload["outputs"]["all_tables_valid"] is False

    def test_largest_supported_norm_passes(self, capsys):
        code, _, _ = run(capsys, "box", "--r", "1000,0,0")
        assert code == 0

    def test_norm_above_domain_rejected_before_building(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the box was built")

        monkeypatch.setattr(cli, "build_box", unreachable)
        code, _, err = run(capsys, "box", "--r", "3e5,4e5,5e5")
        assert code == 2 and "at most 1000" in err
        code, _, err = run(capsys, "chsh-sweep", "--r-min", "1", "--r-max", "1001", "--steps", "2")
        assert code == 2 and "at most 1000" in err

    def test_overflowing_norm_rejected_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["box", "--r", "1e200,0,0"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "squared norm" in err and "RuntimeWarning" not in err


class TestChshSweep:
    def test_rows_follow_the_law(self, capsys):
        code, out, _ = run(capsys, "chsh-sweep", "--r-min", "1", "--r-max", "1.4142", "--steps", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,chsh,valid"
        assert len(lines) == 6
        for line in lines[1:]:
            r, chsh, valid = line.split(",")
            assert float(chsh) == pytest.approx(2 * SQRT2 * float(r), abs=1e-9)
            assert valid == "true"

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(capsys, "chsh-sweep", "--r-min", "0", "--r-max", "1", "--steps", "3")
        assert code == 2 and "error:" in err

    def test_json_judges_every_box(self, capsys):
        code, out, _ = run(capsys, "chsh-sweep", "--r-min", "1", "--r-max", "3", "--steps", "4", "--format", "json")
        assert code == 0
        [check] = json.loads(out)["checks"]
        assert check["name"] == "closed-form-match" and check["tolerance"] == SPECTRAL_ATOL


class TestDiscriminateAndClone:
    def test_discriminate_report(self, capsys):
        code, out, _ = run(
            capsys, "discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "8", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["q_plus_given_plus"] == pytest.approx(1.0, abs=1e-12)
        assert payload["outputs"]["q_minus_given_minus"] == pytest.approx(1.0, abs=1e-12)
        assert payload["outputs"]["correct"] == 8
        assert payload["outputs"]["overlap"] == pytest.approx(0.555, abs=1e-12)

    def test_discriminate_runs_once_per_label(self, capsys, monkeypatch):
        calls = []
        original = cli.discriminate

        def counted(pair, which):
            calls.append(which)
            return original(pair, which)

        monkeypatch.setattr(cli, "discriminate", counted)
        code, out, _ = run(capsys, "discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "20")
        assert code == 0
        assert sorted(calls) == [-1, +1]
        assert json.loads(out)["outputs"]["correct"] == 20

    @pytest.mark.parametrize("command", ["discriminate", "clone-demo"])
    def test_one_measurement_per_hidden_state(self, capsys, discrimination_calls, command):
        code, _, _ = run(capsys, command, "--r", "0,0,2", "--y", "0.6", "--z", "0")
        assert code == 0
        assert discrimination_calls == {"detection_probabilities": 2, "discrimination_povm": 1}

    def test_clone_demo_report(self, capsys):
        code, out, _ = run(capsys, "clone-demo", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["fidelity_plus"] == pytest.approx(0.648025, abs=1e-12)
        assert payload["outputs"]["label_minus"] == -1

    def test_inadmissible_offsets_rejected(self, capsys):
        code, _, err = run(capsys, "discriminate", "--r", "0,0,1.0001", "--y", "0.9", "--z", "0")
        assert code == 2 and "transverse" in err


class TestHighdim:
    def test_default_report(self, capsys):
        code, out, _ = run(capsys, "highdim", "--d", "3", "--epsilon", "0.5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["q1_certain"] == pytest.approx(1.0, abs=1e-10)
        assert payload["outputs"]["q1_null"] == pytest.approx(0.0, abs=1e-10)
        assert payload["outputs"]["leading_weight_certain"] == pytest.approx(5 / 7)
        assert payload["outputs"]["probe_overlap"] == pytest.approx((np.sqrt(5) + 2 * np.sqrt(3)) / 7)

    def test_oversized_dimension_rejected_before_building(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the violating state was built")

        monkeypatch.setattr(cli, "build_violating_state", unreachable)
        code, _, err = run(capsys, "highdim", "--d", "33", "--epsilon", "0.5")
        assert code == 2 and "at most 32" in err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", repr(10 * cli.MAX_HIGHDIM_EPSILON)])
    def test_epsilon_outside_domain_rejected_before_building(self, capsys, monkeypatch, epsilon):
        def unreachable(*args, **kwargs):
            raise AssertionError("the violating state was built")

        monkeypatch.setattr(cli, "build_violating_state", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "highdim", "--d", "3", "--epsilon", epsilon)
        assert code == 2 and f"at most {cli.MAX_HIGHDIM_EPSILON:g}" in err

    def test_largest_supported_epsilon_passes(self, capsys):
        code, _, _ = run(capsys, "highdim", "--d", "3", "--epsilon", repr(cli.MAX_HIGHDIM_EPSILON))
        assert code == 0

    @pytest.mark.parametrize("tail", [["nan", "nan"], ["inf", "0.5"]])
    def test_non_finite_tail_rejected(self, capsys, tail):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, "highdim", "--d", "3", "--epsilon", "0.5", "--lambdas", *tail)
        assert code == 2
        assert "tail spectrum must be finite" in err and "Hermitian" not in err

    def test_random_phases_and_custom_tail(self, capsys):
        code, out, _ = run(
            capsys, "highdim", "--d", "3", "--epsilon", "0.5",
            "--lambdas", "0.25", "-0.75", "--phases", "random", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["q1_certain"] == pytest.approx(1.0, abs=1e-10)


class TestPlanes:
    def test_resource_inside_the_bound_rejected(self, capsys):
        # |r| - 1 = 5e-13 is within pc_check's ATOL: both certainty
        # "circles" would be single points
        code, out, err = run(capsys, "planes", "--r", "0,0,1.0000000000005")
        assert code == 2
        assert out == ""
        assert "norm > 1" in err

    def test_boundary_circles(self, capsys):
        code, out, _ = run(capsys, "planes", "--r", "0.3,-1.1,1.7", "--points", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "plane,theta,x,y,z"
        assert len(lines) == 1 + 2 * 16
        # csv carries 12 significant digits, so allow that much rounding
        r = np.array([0.3, -1.1, 1.7])
        for line in lines[1:]:
            plane, _, x, y, z = (float(v) for v in line.split(","))
            point = np.array([x, y, z])
            assert np.linalg.norm(point) == pytest.approx(1.0, abs=1e-11)
            assert float(r @ point) == pytest.approx(plane, abs=1e-11)


class TestDeterminism:
    def test_identical_inputs_identical_reports(self):
        parser = build_parser()
        emissions = []
        for _ in range(2):
            args = parser.parse_args(["box", "--r", "0.2,-0.4,1.9", "--format", "json"])
            report = args.func(args)
            report.duration_ms = 0.0  # timing is the one nondeterministic field
            emissions.append(emit_report(report, "json"))
        assert emissions[0] == emissions[1]

    def test_seeded_commands_are_reproducible(self):
        parser = build_parser()
        emissions = []
        for _ in range(2):
            args = parser.parse_args(["highdim", "--d", "4", "--epsilon", "1.0", "--phases", "random"])
            report = args.func(args)
            report.duration_ms = 0.0
            emissions.append(emit_report(report, "json"))
        assert emissions[0] == emissions[1]


@pytest.mark.parametrize(
    "argv", [a for a in readme_examples() if a[0] != "verify-all"], ids=lambda argv: argv[0]
)
def test_readme_examples_run(capsys, argv):
    # pc-check --r 0,0,1.2 is the README's example of a violated bound
    expected = 1 if argv[0] == "pc-check" else 0
    code, out, _ = run(capsys, *argv)
    assert code == expected
    assert out


def _replay_run_all(monkeypatch, criteria):
    """Make ``verify-all`` return the session's criteria; return the seeds
    it was asked for."""
    seeds = []

    def run_all(seed):
        seeds.append(seed)
        return criteria

    monkeypatch.setattr(acceptance, "run_all", run_all)
    return seeds


def test_verify_all_exits_zero_when_all_criteria_pass(capsys, monkeypatch, verify_all_criteria):
    seeds = _replay_run_all(monkeypatch, verify_all_criteria)
    code, out, err = run(capsys, "verify-all")
    assert seeds == [42]
    assert code == 0
    assert "criteria_passed: 9" in out
    assert err.count("[PASS] criterion") == 9


# The two strict lower bounds, built with CheckResult.above; every other
# check is an upper bound, built with CheckResult.at_most.
ABOVE_CHECKS = {"generic-pairs-margin", "overlap-strictly-positive"}


@pytest.mark.parametrize("argv", readme_examples(), ids=lambda argv: argv[0])
def test_every_verdict_is_the_comparison_its_report_prints(capsys, monkeypatch, verify_all_criteria, argv):
    _replay_run_all(monkeypatch, verify_all_criteria)
    _, out, _ = run(capsys, *argv, "--format", "json")
    for check in json.loads(out)["checks"]:
        if check["name"].rsplit("/", 1)[-1] in ABOVE_CHECKS:
            assert check["passed"] == (check["measured"] > check["tolerance"]), check
        else:
            assert check["passed"] == (check["measured"] <= check["tolerance"]), check


# Every tolerance a report states comes from the table in quasilab.operators.
POLICY_TOLERANCES = {0.0, ATOL, SPECTRAL_ATOL, LAW_ATOL, 1.0 - LAW_ATOL}


@pytest.mark.parametrize(
    "argv",
    [a for a in readme_examples() if a[0] not in ("chsh-sweep", "planes")],
    ids=lambda argv: argv[0],
)
def test_report_tolerances_come_from_the_policy_table(capsys, monkeypatch, verify_all_criteria, argv):
    _replay_run_all(monkeypatch, verify_all_criteria)
    _, out, _ = run(capsys, *argv, "--format", "json")
    tolerances = {check["tolerance"] for check in json.loads(out)["checks"]}
    assert tolerances and tolerances <= POLICY_TOLERANCES
