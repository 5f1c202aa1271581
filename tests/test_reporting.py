"""Report serialization: JSON round trip, CSV layouts, text rendering."""

import json
from dataclasses import asdict

import numpy as np
import pytest

from quasilab.reporting import CheckResult, RunReport, emit_report, fmt_real, parse_report


def sample_report():
    return RunReport(
        command="box",
        inputs={"r": [0.0, 0.0, 1.5], "settings": "auto"},
        outputs={"chsh": 4.0, "eigenvalues": [1.25, 0.0, 0.0, -0.25]},
        checks=[
            CheckResult("chsh-law", True, 2.5e-15, 1e-9),
            CheckResult("nonsignalling", True, 0.0, 1e-12),
        ],
        duration_ms=1.5,
    )


class TestVerdictRules:
    @pytest.mark.parametrize("measured, passed", [(0.5, True), (1.0, True), (1.5, False)])
    def test_at_most(self, measured, passed):
        check = CheckResult.at_most("bound", measured, 1.0)
        assert (check.passed, check.measured, check.tolerance) == (passed, measured, 1.0)

    @pytest.mark.parametrize("measured, passed", [(0.5, False), (1.0, False), (1.5, True)])
    def test_above(self, measured, passed):
        check = CheckResult.above("margin", measured, 1.0)
        assert (check.passed, check.measured, check.tolerance) == (passed, measured, 1.0)

    def test_per_instance_values_reduce_to_the_worst(self):
        values = np.array([[0.25, 2.0], [1.0, 0.5]])
        assert CheckResult.at_most("bound", values, 1.0).measured == 2.0
        assert CheckResult.above("margin", values, 0.0).measured == 0.25
        assert CheckResult.at_most("bound", [np.zeros(3), np.full(3, 0.75)], 1.0).measured == 0.75

    @pytest.mark.parametrize("values", [[np.nan, 0.0], [0.0, np.nan], np.array([[0.0], [np.nan]])])
    def test_nan_anywhere_fails(self, values):
        # the builtin max(0.0, nan) is 0.0: a NaN after the first value would pass
        for check in (CheckResult.at_most("bound", values, 1.0), CheckResult.above("margin", values, -1.0)):
            assert not check.passed and np.isnan(check.measured)


class TestHeadroom:
    @pytest.mark.parametrize(
        "measured, tolerance, headroom",
        [(0.25, 1.0, 0.25), (1.0, 1.0, 1.0), (4.0, 1.0, 0.25), (0.0, 0.0, 0.0), (0.0, 1e-12, 0.0), (2.0, 0.0, 0.0)],
    )
    def test_at_most(self, measured, tolerance, headroom):
        # measured / tolerance while passing, tolerance / measured once failing
        assert CheckResult.at_most("bound", measured, tolerance).headroom == headroom

    @pytest.mark.parametrize(
        "measured, bound, headroom", [(4.0, 1.0, 0.25), (0.06, 0.0, 0.0), (0.25, 1.0, 0.25), (1.0, 1.0, 1.0)]
    )
    def test_above(self, measured, bound, headroom):
        # bound / measured while passing, measured / bound once failing
        assert CheckResult.above("margin", measured, bound).headroom == headroom


class TestJson:
    def test_round_trip(self):
        report = sample_report()
        assert parse_report(emit_report(report, "json")) == report

    def test_keys_sorted(self):
        payload = json.loads(emit_report(sample_report(), "json"))
        assert list(payload) == sorted(payload)
        assert list(payload["inputs"]) == sorted(payload["inputs"])

    def test_numpy_values_normalized(self):
        report = RunReport(command="x", inputs={"r": np.array([1.0, 2.0])}, outputs={"v": np.float64(3.0)})
        assert report.inputs["r"] == [1.0, 2.0]
        assert isinstance(report.outputs["v"], float)
        assert parse_report(emit_report(report, "json")) == report

    def test_deterministic(self):
        assert emit_report(sample_report(), "json") == emit_report(sample_report(), "json")

    def test_same_text_as_the_dataclass_dict(self):
        nested = RunReport(
            command="sweep",
            inputs={"r": np.array([[0.0, 1.0], [2.0, 3.0]]), "steps": np.int64(2), "lambdas": [np.float64(-0.5)]},
            outputs={"valid": np.array([True, False]), "failed": ["a", "b"], "chsh": np.float64(4.0)},
            checks=sample_report().checks,
            duration_ms=np.float64(2.5),
        )
        for report in (sample_report(), nested):
            assert emit_report(report, "json") == json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


class TestCsv:
    def test_section_layout(self):
        lines = emit_report(sample_report(), "csv").splitlines()
        assert lines[0] == "section,key,value,passed,tolerance"
        assert lines[1] == "command,,box,,"
        assert "check,chsh-law,2.5e-15,true,1e-09" in lines

    def test_empty_checks_is_valid_document(self):
        report = RunReport(command="noop")
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "section,key,value,passed,tolerance"
        assert not any(line.startswith("check,") for line in lines)

    def test_table_layout_one_row_per_point(self):
        report = RunReport(
            command="chsh-sweep",
            inputs={"steps": 3},
            outputs={"r": [1.0, 1.2, 1.4], "chsh": [2.8, 3.4, 3.9], "valid": [True, True, True]},
        )
        lines = emit_report(report, "csv").splitlines()
        assert lines[0] == "r,chsh,valid"
        assert len(lines) == 4
        assert lines[1] == "1,2.8,true"


@pytest.mark.parametrize("fmt, line", [("csv", "input,{},{},,"), ("text", "  {}: {}")])
@pytest.mark.parametrize(
    "value, shown",
    [
        (10**400, "1" + "0" * 400),
        (2**62 + 1, "4611686018427387905"),
        (10**12, "1000000000000"),
        (999_999_999_999, "999999999999"),
        (-7, "-7"),
        (0, "0"),
        (True, "true"),
        (2.0 / 3.0, "0.666666666667"),
        (1e12, "1e+12"),
        ([3, 2**70], "3;1180591620717411303424"),
    ],
    ids=["10**400", "2**62+1", "10**12", "below-1e12", "negative", "zero", "bool", "float", "float-1e12", "list"],
)
def test_ints_render_exactly(fmt, line, value, shown):
    report = RunReport(command="highdim", inputs={"seed": value})
    assert line.format("seed", shown) in emit_report(report, fmt).splitlines()


class TestText:
    def test_twelve_significant_digits(self):
        assert fmt_real(2.0 / 3.0) == "0.666666666667"
        assert fmt_real(2.0 * 2.0**0.5) == "2.82842712475"

    def test_pass_fail_lines(self):
        report = sample_report()
        report.checks.append(CheckResult("broken", False, 0.5, 1e-9))
        text = emit_report(report, "text")
        assert "[PASS] chsh-law" in text
        assert "[FAIL] broken" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            emit_report(sample_report(), "yaml")


def test_failing_names():
    report = sample_report()
    report.checks.append(CheckResult("broken", False, 0.5, 1e-9))
    assert not report.all_passed
    assert report.failing() == ["broken"]
