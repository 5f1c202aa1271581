"""Command-line surface: subcommands, formats, exit codes, determinism."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from quasilab import cli
from quasilab.cli import build_parser, main
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


class TestPcCheck:
    def test_boundary_passes(self, capsys):
        code, out, _ = run(capsys, "pc-check", "--r", "0,0,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["norm"] == pytest.approx(1.0)
        assert payload["checks"][0]["passed"] is True

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

    def test_random_phases_and_custom_tail(self, capsys):
        code, out, _ = run(
            capsys, "highdim", "--d", "3", "--epsilon", "0.5",
            "--lambdas", "0.25", "-0.75", "--phases", "random", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["outputs"]["q1_certain"] == pytest.approx(1.0, abs=1e-10)


class TestPlanes:
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


def test_verify_all_exits_zero_when_all_criteria_pass(capsys):
    code, out, err = run(capsys, "verify-all")
    assert code == 0
    assert "criteria_passed: 9" in out
    assert err.count("[PASS] criterion") == 9
