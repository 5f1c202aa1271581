"""Command-line surface: subcommands, formats, exit codes, determinism."""

import contextlib
import functools
import io
import itertools
import json
import re
import shlex
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasilab import acceptance, bloch, cli, discrimination, highdim, nonlocal_box
from quasilab.cli import main
from quasilab.operators import ATOL, LAW_ATOL, SPECTRAL_ATOL

SQRT2 = np.sqrt(2.0)


def readme_examples() -> list[list[str]]:
    """argv of each `quasilab ...` line in the README's Command line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("quasilab ")]


def run(capsys, *argv):
    """Exit code, stdout and stderr of one request; a flag that argparse
    turns away exits as the process would."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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
            ["discriminate", "--r", "0,0,2", "--y", "nan", "--z", "0"],
            ["clone-demo", "--r", "0,0,0.5", "--y", "0.1", "--z", "0"],
            ["discriminate", "--r", "0,0,1.0001", "--y", "0.9", "--z", "0"],
            ["box", "--r", "3e5,4e5,5e5"],
            ["chsh-sweep", "--r-min", "1", "--r-max", "2e3", "--steps", "3"],
            ["planes", "--r", "0,0,0.5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_rejected_input_is_two_without_traceback(self, capsys, argv):
        # the batched constructions reject these as the scalar ones did
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # the tilted branch's sqrt(2)/r overflows at r = 1e-320, but the
            # diagonal branch is the one used
            (["chsh-sweep", "--r-min", "1e-320", "--r-max", "1e-320", "--steps", "2"], 0, ""),
            (["discriminate", "--r", "0,0,2", "--y", "1e200", "--z", "0"], 2, "too large"),
            (["clone-demo", "--r", "0,0,2", "--y", "1e200", "--z", "0"], 2, "too large"),
        ],
        ids=["chsh-sweep", "discriminate", "clone-demo"],
    )
    def test_overflow_in_a_discarded_or_rejected_value_prints_no_warning(self, capsys, argv, code, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _, err = run(capsys, *argv)
        assert got == code and message in err and "RuntimeWarning" not in err

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

    @pytest.mark.parametrize(
        "argv, bound, handler_call",
        [
            (["chsh-sweep", "--r-min", "1", "--r-max", "2", "--steps"], cli.MAX_STEPS, "chsh_experiment"),
            (["discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials"], cli.MAX_TRIALS, "hyperplane_pair"),
            (["planes", "--r", "0,0,2", "--points"], cli.MAX_POINTS, "pc_check"),
        ],
        ids=["steps", "trials", "points"],
    )
    @pytest.mark.parametrize("over", ["bound+1", "1e12"])
    def test_count_above_its_bound_is_two_before_running(self, capsys, monkeypatch, argv, bound, handler_call, over):
        def unreachable(*args, **kwargs):
            raise AssertionError("the handler ran")

        monkeypatch.setattr(cli, handler_call, unreachable)
        count = bound + 1 if over == "bound+1" else 10**12
        with pytest.raises(SystemExit) as exc:
            main([*argv, str(count)])
        assert exc.value.code == 2
        assert f"argument {argv[-1]}: must be at most {bound}, got {count}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, owner, first_call",
        [
            (["verify-all"], acceptance, "run_all"),
            (["discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0"], cli, "hyperplane_pair"),
            (["highdim", "--d", "3", "--epsilon", "0.5"], cli, "build_violating_state"),
        ],
        ids=["verify-all", "discriminate", "highdim"],
    )
    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890", "1.5"])
    def test_seed_below_zero_is_two_before_running(self, capsys, monkeypatch, argv, owner, first_call, seed):
        def unreachable(*args, **kwargs):
            raise AssertionError("the handler ran")

        monkeypatch.setattr(owner, first_call, unreachable)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", seed])
        assert exc.value.code == 2
        reason = "expected an integer, got '1.5'" if seed == "1.5" else f"must be at least 0, got {seed}"
        assert capsys.readouterr().err.endswith(f"error: argument --seed: {reason}\n")

    def test_seed_zero_and_large_seeds_are_accepted(self, capsys):
        for seed in ("0", str(2**70)):
            code, _, _ = run(capsys, "highdim", "--d", "2", "--epsilon", "0.5", "--phases", "random", "--seed", seed)
            assert code == 0

    @pytest.mark.parametrize("fmt, line", [("csv", "input,seed,{},,"), ("text", "  seed: {}")])
    @pytest.mark.parametrize("seed", [str(10**400), "4611686018427387905"], ids=["10**400", "2**62+1"])
    def test_large_seeds_are_echoed_exactly(self, capsys, fmt, line, seed):
        # the echoed seed replays the run only if every digit is kept
        code, out, _ = run(capsys, "highdim", "--d", "2", "--epsilon", "0.5", "--seed", seed, "--format", fmt)
        assert code == 0
        assert line.format(seed) in out.splitlines()

    def test_tail_that_overflows_is_two_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "highdim", "--d", "3", "--epsilon", "0.5", "--lambdas", "1e308", "1e308")
        assert (code, out, err) == (2, "", "error: tail spectrum must sum to -epsilon, got inf\n")


class TestValuesStartingWithMinus:
    """A flag value that starts with '-' and then a digit or '.' is a value,
    as its '=' spelling is, not only a plain negative number."""

    @staticmethod
    def report(capsys, *argv):
        code, out, err = run(capsys, *argv, "--format", "json")
        return code, re.sub(r'"duration_ms": [^,\n]+', '"duration_ms": 0', out), err

    @pytest.mark.parametrize(
        "argv, spelled, code",
        [
            (["pc-check", "--r", "-1,0,0"], ["pc-check", "--r=-1,0,0"], 0),
            (["pc-check", "--r", "-.5,0,0"], ["pc-check", "--r=-.5,0,0"], 0),
            (
                ["discriminate", "--r", "0,0,2", "--y", "-1e-3", "--z", "0"],
                ["discriminate", "--r=0,0,2", "--y=-1e-3", "--z=0"],
                0,
            ),
            (
                ["highdim", "--d", "3", "--epsilon", "0.5", "--lambdas", "-2.5e-1", "-2.5e-1"],
                ["highdim", "--d", "3", "--epsilon", "0.5", "--lambdas", "-0.25", "-0.25"],
                0,
            ),
            # rejected by the domain, not taken for a missing value
            (["highdim", "--d", "3", "--epsilon", "-inf"], ["highdim", "--d", "3", "--epsilon=-inf"], 2),
        ],
        ids=["pc-check", "pc-check-dot", "discriminate", "highdim", "highdim-inf"],
    )
    def test_parses_as_the_other_spelling(self, capsys, argv, spelled, code):
        got = self.report(capsys, *argv)
        assert got[0] == code
        assert got == self.report(capsys, *spelled)

    def test_a_flag_followed_by_an_option_still_lacks_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pc-check", "--r", "--format", "json"])
        assert exc.value.code == 2
        assert "error: argument --r: expected one argument" in capsys.readouterr().err


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

        monkeypatch.setattr(cli, "chsh_experiment", unreachable)
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

    def test_calls_do_not_grow_with_steps(self, capsys, count_calls):
        # the sweep builds and measures the stack of its boxes, on both
        # sides of sqrt(2)
        counts = []
        for steps in ("2", "50"):
            with count_calls() as calls:
                code, _, _ = run(capsys, "chsh-sweep", "--r-min", "0.5", "--r-max", "3", "--steps", steps)
            assert code == 0
            counts.append((calls["kron"], calls["expectation"]))
        assert counts[0] == counts[1]

    def test_bad_grid_rejected(self, capsys):
        code, _, err = run(capsys, "chsh-sweep", "--r-min", "0", "--r-max", "1", "--steps", "3")
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize(
        "r_min, r_max, message",
        [
            ("nan", "1", "sweep needs 0 < r-min <= r-max"),
            ("1", "nan", "sweep needs 0 < r-min <= r-max"),
            ("nan", "nan", "sweep needs 0 < r-min <= r-max"),
            ("inf", "inf", "r-max must be at most 1000, got inf"),
        ],
    )
    def test_non_finite_bounds_are_rejected_by_the_sweep_domain(self, capsys, monkeypatch, r_min, r_max, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(cli, "chsh_experiment", unreachable)
        code, out, err = run(capsys, "chsh-sweep", "--r-min", r_min, "--r-max", r_max, "--steps", "3")
        assert (code, out, err) == (2, "", f"error: {message}\n")

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

    @pytest.mark.parametrize("command", ["discriminate", "clone-demo"])
    def test_resource_near_the_z_axis(self, capsys, command):
        # 1e-7 off the z axis, where the transverse frame starts from x
        code, out, _ = run(capsys, command, "--r", "1e-7,0,2", "--y", "0.6", "--z", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert all(check["passed"] for check in payload["checks"])
        r = np.array([1e-7, 0.0, 2.0])
        assert float(r @ payload["outputs"]["r_plus"]) == pytest.approx(1.0, abs=ATOL)

    def test_discriminate_runs_once_per_label(self, capsys, monkeypatch):
        calls = []
        original = discrimination.discriminate

        def counted(pair, which):
            calls.extend(np.ravel(which))
            return original(pair, which)

        monkeypatch.setattr(discrimination, "discriminate", counted)
        code, out, _ = run(capsys, "discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "20")
        assert code == 0
        assert sorted(calls) == [-1, +1]
        assert json.loads(out)["outputs"]["correct"] == 20

    @pytest.mark.parametrize("command", ["discriminate", "clone-demo"])
    def test_one_measurement_per_hidden_state(self, capsys, discrimination_calls, command):
        code, _, _ = run(capsys, command, "--r", "0,0,2", "--y", "0.6", "--z", "0")
        assert code == 0
        assert discrimination_calls == {"detection_probabilities": 2, "discrimination_povm": 1}

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("discriminate", {"discriminate": 1, "clone_protocol": 0, "expectation": 0}),
            ("clone-demo", {"discriminate": 1, "clone_protocol": 1, "expectation": 1}),
        ],
        ids=["discriminate", "clone-demo"],
    )
    def test_one_call_for_both_hidden_states(self, capsys, calls_to, command, expected):
        # discrimination_experiment measures; the handler clones and pairs
        measured = calls_to(discrimination, ["discriminate"])
        handled = calls_to(cli, ["clone_protocol", "expectation"])
        code, _, _ = run(capsys, command, "--r", "0,0,2", "--y", "0.6", "--z", "0")
        assert code == 0
        assert {**measured, **handled} == expected

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

    @pytest.mark.parametrize("lambdas", [[], ["--lambdas"]], ids=["absent", "no-values"])
    def test_uniform_tail_without_lambdas(self, capsys, lambdas):
        code, out, _ = run(capsys, "highdim", "--d", "4", "--epsilon", "0.6", *lambdas, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        # the echo is the tail built, which replays the state
        assert payload["inputs"]["lambdas"] == [-0.6 / 3] * 3
        assert payload["outputs"]["spectrum"] == pytest.approx([1.6, -0.2, -0.2, -0.2], abs=1e-15)

    @pytest.mark.parametrize("flags", [[], ["--lambdas", "0.25", "-0.75"], ["--phases", "random", "--seed", "7"]])
    def test_echo_given_back_replays_the_report(self, capsys, flags):
        code, out, _ = run(capsys, "highdim", "--d", "3", "--epsilon", "0.5", *flags, "--format", "json")
        replay = echo_as_flags(json.loads(out))
        assert "--lambdas" in replay
        replayed, replayed_out, _ = run(capsys, *replay, "--format", "json")
        assert (replayed, without_duration(replayed_out)) == (code, without_duration(out)) == (0, without_duration(out))

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


    @pytest.mark.parametrize("direction", [(0.3, -1.1, 1.7), (1e-7, 0.0, 1.0), (-2.0, 0.5, -0.1)])
    @pytest.mark.parametrize("norm", [1.0 + 1e-9, 1.05, 3.0, 1e3, 1e6])
    def test_points_on_certainty_planes(self, capsys, norm, direction):
        # judged on r_hat.p = +-1/|r|, which rounding keeps near 1e-16 at
        # every norm, where r.p = +-1 drifts by |r| times that
        r = norm * np.array(direction) / np.linalg.norm(direction)
        flag = "--r=" + ",".join(repr(float(c)) for c in r)
        code, out, _ = run(capsys, "planes", flag, "--points", "32", "--format", "json")
        assert code == 0
        (check,) = json.loads(out)["checks"]
        assert check["name"] == "points-on-certainty-planes"
        assert check["passed"] and check["tolerance"] == ATOL

    def test_non_orthogonal_frame_fails(self, capsys, monkeypatch):
        frame = bloch.transverse_frame

        def skewed(r_hat):
            m, n = frame(r_hat)
            return m, (m + n) / np.sqrt(2.0)  # unit and transverse, but not orthogonal to m

        monkeypatch.setattr(bloch, "transverse_frame", skewed)
        code, out, err = run(capsys, "planes", "--r", "0.3,-1.1,1.7", "--points", "16")
        assert code == 1
        assert out.splitlines()[0] == "plane,theta,x,y,z"
        assert "failed checks: points-on-certainty-planes" in err

    def test_circles_near_the_z_axis(self, capsys):
        code, out, _ = run(capsys, "planes", "--r", "1e-7,0,2", "--points", "16", "--format", "json")
        assert code == 0
        outputs = json.loads(out)["outputs"]
        points = np.array([outputs["x"], outputs["y"], outputs["z"]]).T
        assert np.max(np.abs(np.linalg.norm(points, axis=1) - 1.0)) <= ATOL
        assert np.max(np.abs(points @ np.array([1e-7, 0.0, 2.0]) - np.array(outputs["plane"]))) <= ATOL


class TestDeterminism:
    def test_requests_in_one_process_match_separate_ones(self, capsys):
        # the parser is built once and reused: a request must not see what
        # an earlier one parsed
        requests = (
            ["pc-check", "--r", "0,0,1.2"],
            ["box", "--r", "0.2,-0.4,1.9"],
            ["discriminate", "--r", "0,0,2", "--y", "0.6", "--z", "0", "--trials", "5"],
            ["pc-check", "--r", "0,0,0.5"],
        )

        def request(argv):
            code, out, err = run(capsys, *argv, "--format", "json")
            payload = json.loads(out)
            del payload["duration_ms"]
            return code, payload, err

        separate = []
        for argv in requests:
            cli.build_parser.cache_clear()
            separate.append(request(argv))
        cli.build_parser.cache_clear()
        together = [request(argv) for argv in requests]
        assert together == separate
        assert [code for code, _, _ in together] == [1, 0, 0, 0]
        assert cli.build_parser.cache_info().misses == 1

    @staticmethod
    def emissions(capsys, *argv) -> list[str]:
        """The JSON report of two runs of one request, with the one
        nondeterministic field, the timing, blanked."""
        emissions = []
        for _ in range(2):
            _, out, _ = run(capsys, *argv, "--format", "json")
            emissions.append(re.sub(r'"duration_ms": [^,\n]+', '"duration_ms": 0', out))
        return emissions

    def test_identical_inputs_identical_reports(self, capsys):
        emissions = self.emissions(capsys, "box", "--r", "0.2,-0.4,1.9")
        assert emissions[0] == emissions[1]

    def test_seeded_commands_are_reproducible(self, capsys):
        emissions = self.emissions(capsys, "highdim", "--d", "4", "--epsilon", "1.0", "--phases", "random")
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


# Reals at the edges of what a double holds, as typed on a command line:
# signed zeros, a subnormal, the largest magnitudes, one that overflows to
# inf, NaN and the infinities, and 1 +- 1e-12.
EDGE_REALS = ("0", "-0", "1e-320", "-1e-320", "1e308", "-1e308", "1e3000", "nan", "inf", "-inf")
EDGE_REALS += ("1.000000000001", "0.999999999999", "-1.000000000001")
edge_reals = st.sampled_from(EDGE_REALS)
reals = st.one_of(edge_reals, st.floats(-2.0, 2.0).map(repr))
# edge reals, or in two draws of three a value the handler may accept
offsets = st.one_of(edge_reals, *[st.floats(-0.3, 0.3).map(repr)] * 2)
epsilons = st.one_of(edge_reals, *[st.floats(1e-3, 5.0).map(repr)] * 2)
# resource norms either side of |r| = 1 and large, along the z axis (where
# the transverse frame switches rule), near it, or anywhere
R_NORMS = (1.0 - 1e-12, 1.0 + 1e-12, 1.0 + 1e-9, 1.0 + 2e-9, 1.05, 2.0, 1e3, 1e154, 1e300)
directions = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (1e-7, 0.0, -1.0), (0.6, 0.0, 0.8)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 0.1),
)


def _resource(norm: float, direction) -> str:
    unit = np.asarray(direction) / np.linalg.norm(direction)
    return ",".join(repr(float(c)) for c in norm * unit)


resources = st.one_of(
    st.builds(_resource, st.sampled_from(R_NORMS), directions),
    st.tuples(reals, reals, reals).map(",".join),
)
# Integer flags at and past their bounds, and valid values cheap to run:
# the upper bounds of --steps, --points and --trials themselves take
# 0.4-1 s a request, so of those only the bound of --d is drawn.
PAST_EVERY_BOUND = (2**70 + 1, 10**400, -(10**400))


def integers(least, most, cheap_most):
    edges = [least - 1, least, most + 1, *PAST_EVERY_BOUND] + ([most] if most <= cheap_most else [])
    return st.one_of(st.sampled_from(edges), st.integers(least, cheap_most)).map(str)


counts = {
    "--steps": integers(1, cli.MAX_STEPS, 40),
    "--points": integers(1, cli.MAX_POINTS, 40),
    "--trials": integers(1, cli.MAX_TRIALS, 40),
    "--d": integers(2, cli.MAX_HIGHDIM_DIM, cli.MAX_HIGHDIM_DIM),
    "--seed": st.one_of(st.sampled_from([-1, 0, 2**70 + 1, 10**400, -(10**400)]), st.integers(0, 2**64)).map(str),
}
# sweep bounds either side of 0 and of MAX_BOX_NORM, besides the edge reals
sweep_bounds = st.one_of(reals, st.floats(0.0, 1.1 * cli.MAX_BOX_NORM).map(repr))


def spelled(flag, values):
    """``flag`` and a value drawn from ``values``, as --flag V or --flag=V."""
    return st.builds(lambda value, joined: [f"{flag}={value}"] if joined else [flag, value], values, st.booleans())


def request(command, *flags, optional=()):
    """A request of ``command``: each of ``flags`` and ``optional`` a
    (flag, values) pair, each optional one present or not."""
    parts = [spelled(*flag) for flag in flags] + [st.one_of(st.just([]), spelled(*flag)) for flag in optional]
    return st.tuples(*parts).map(lambda drawn: [command, *itertools.chain.from_iterable(drawn)])


tails = st.lists(reals, max_size=8).map(lambda values: ["--lambdas", *values])
REQUESTS = {
    "pc-check": request("pc-check", ("--r", resources)),
    "box": request("box", ("--r", resources), optional=[("--settings", st.sampled_from(["auto", "tsirelson"]))]),
    "chsh-sweep": request(
        "chsh-sweep", ("--r-min", sweep_bounds), ("--r-max", sweep_bounds), ("--steps", counts["--steps"])
    ),
    "discriminate": request(
        "discriminate",
        ("--r", resources),
        ("--y", offsets),
        ("--z", offsets),
        optional=[("--trials", counts["--trials"]), ("--seed", counts["--seed"])],
    ),
    "clone-demo": request("clone-demo", ("--r", resources), ("--y", offsets), ("--z", offsets)),
    "highdim": st.tuples(
        request(
            "highdim",
            ("--d", counts["--d"]),
            ("--epsilon", epsilons),
            optional=[("--phases", st.sampled_from(["zero", "random"])), ("--seed", counts["--seed"])],
        ),
        st.one_of(st.just([]), tails),
    ).map(lambda parts: parts[0] + parts[1]),
    "planes": request("planes", ("--r", resources), optional=[("--points", counts["--points"])]),
}

# What an exit-2 message names when it names no flag: the quantity or the
# domain a handler or a construction holds the request to.
PAIR_DOMAINS = ("Bloch vector", "resource norm", "transverse", "|r|")
DOMAINS = {
    "pc-check": ("Bloch vector",),
    "box": ("|r|",),
    "chsh-sweep": ("r-min", "r-max"),
    "discriminate": PAIR_DOMAINS,
    "clone-demo": PAIR_DOMAINS,
    "highdim": ("epsilon", "tail spectrum", "tail eigenvalue"),
    "planes": ("norm",),
}


def _cli(argv):
    """Exit code, stdout and stderr of one in-process request, with every
    warning an error."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def echo_as_flags(report: dict) -> list[str]:
    """The request that a json report's echoed inputs give back as flags."""
    argv = [report["command"]]
    for key, value in report["inputs"].items():
        flag = "--" + key.replace("_", "-")
        if key == "r":
            argv.append(f"{flag}={','.join(map(str, value))}")
        elif isinstance(value, list):
            argv += [flag, *map(str, value)]
        else:
            argv.append(f"{flag}={value}")
    return argv


def without_duration(out: str) -> dict:
    report = json.loads(out)
    del report["duration_ms"]
    return report


@settings(max_examples=150, deadline=None)
@given(st.one_of(*REQUESTS.values()), st.sampled_from(["json", "csv", "text"]))
def test_requests_end_in_a_report_or_a_named_rejection_and_their_echo_replays(argv, fmt):
    _assert_report_or_named_rejection_that_replays(argv, fmt)


# verify-all at seeds past every bound of a fixed-width integer, and seeds
# it turns away: a negative one and one that is no integer; each seed is
# drawn at least once. Each seed's criteria run once, and every request at
# that seed reads them, so the draws stay cheap; a replay whose echoed seed
# parsed otherwise would run its own.
VERIFY_ALL_SEEDS = ("0", str(2**70 + 1), str(10**400), "-1", "1e3")
VERIFY_ALL = request("verify-all", ("--seed", st.sampled_from(VERIFY_ALL_SEEDS)))
_criteria_of_seed = functools.lru_cache(acceptance.run_all)


@settings(max_examples=30, deadline=None)
@given(VERIFY_ALL, st.sampled_from(["json", "csv", "text"]))
@example(["verify-all", "--seed=0"], "json")
@example(["verify-all", f"--seed={2**70 + 1}"], "text")
@example(["verify-all", f"--seed={10**400}"], "csv")
@example(["verify-all", "--seed=-1"], "json")
@example(["verify-all", "--seed=1e3"], "json")
def test_verify_all_requests_end_in_a_report_or_a_named_rejection_and_their_echo_replays(argv, fmt):
    with mock.patch.object(acceptance, "run_all", _criteria_of_seed):
        _assert_report_or_named_rejection_that_replays(argv, fmt)


def _assert_report_or_named_rejection_that_replays(argv, fmt):
    # every request ends in exit 0, 1 or 2, with no traceback and no warning
    code, _, err = _cli([*argv, "--format", fmt])
    assert code in (0, 1, 2), err
    assert "Warning" not in err
    if code == 2:
        named = [word for word in argv if word.startswith("--")] + list(DOMAINS.get(argv[0], ()))
        assert any(name.split("=")[0] in err for name in named), err
        return
    # the json echo given back as flags makes the same report
    code, out, _ = _cli([*argv, "--format", "json"])
    replay = echo_as_flags(json.loads(out))
    replayed, replayed_out, replayed_err = _cli([*replay, "--format", "json"])
    assert replayed == code, (replay, replayed_err)
    assert without_duration(replayed_out) == without_duration(out)
