"""Machine-readable run reports: JSON for single runs, CSV for sweeps and
plot data, text for the terminal. Serialization is deterministic (sorted
keys, fixed float formatting) so identical inputs give identical reports."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np


def fmt_real(x) -> str:
    """Real number with 12 significant digits."""
    return f"{float(x):.12g}"


def _plain(value):
    """Recursively convert numpy containers/scalars to plain Python."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


@dataclass
class CheckResult:
    """One named verification with its measured value and tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float

    def __post_init__(self):
        self.passed = bool(self.passed)
        self.measured = float(self.measured)
        self.tolerance = float(self.tolerance)

    # The two verdict rules. Every check is built by one of them, so its
    # verdict is the comparison of the two numbers it reports.
    @classmethod
    def at_most(cls, name: str, measured: float, tolerance: float) -> CheckResult:
        """Upper-bound check that passes iff ``measured <= tolerance``."""
        return cls(name, measured <= tolerance, measured, tolerance)

    @classmethod
    def above(cls, name: str, measured: float, bound: float) -> CheckResult:
        """Strict lower-bound check that passes iff ``measured > bound``."""
        return cls(name, measured > bound, measured, bound)

    @property
    def headroom(self) -> float:
        """How close the check came to its bound: the smaller of measured
        and tolerance over the larger (0 when both are 0). For a passing
        check of either rule, 1 means at the bound and 0 means far from it."""
        low, high = sorted((self.measured, self.tolerance))
        return low / high if high else 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name} (measured={fmt_real(self.measured)}, tolerance={fmt_real(self.tolerance)})"


@dataclass
class RunReport:
    """Outcome of one CLI run: echoed inputs, named outputs, and the list
    of checks with tolerances. Scalar and vector values only."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    duration_ms: float = 0.0

    def __post_init__(self):
        self.inputs = _plain(self.inputs)
        self.outputs = _plain(self.outputs)
        self.duration_ms = float(self.duration_ms)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


def emit_report(report: RunReport, fmt: str = "json") -> str:
    """Serialize a report as json, csv, or text.

    JSON sorts keys. CSV emits one row per grid point when every output is
    an equal-length vector (sweep reports keep their stated column order),
    and section/key/value rows otherwise. Text prints reals to 12
    significant digits with one [PASS]/[FAIL] line per check.
    """
    if fmt == "json":
        return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "text":
        return _emit_text(report)
    raise ValueError(f"unknown format {fmt!r}")


def parse_report(text: str) -> RunReport:
    """Inverse of the JSON emission."""
    payload = json.loads(text)
    return RunReport(
        command=payload["command"],
        inputs=payload["inputs"],
        outputs=payload["outputs"],
        checks=[CheckResult(**c) for c in payload["checks"]],
        duration_ms=payload["duration_ms"],
    )


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return fmt_real(value)
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return str(value)


def _is_table(outputs: dict) -> bool:
    if not outputs:
        return False
    lengths = {len(v) if isinstance(v, list) else -1 for v in outputs.values()}
    return -1 not in lengths and len(lengths) == 1


def _emit_csv(report: RunReport) -> str:
    lines = []
    if _is_table(report.outputs):
        # Sweep-style report: columns in construction order, one row per point.
        keys = list(report.outputs)
        lines.append(",".join(keys))
        for row in zip(*(report.outputs[k] for k in keys)):
            lines.append(",".join(_cell(v) for v in row))
    else:
        lines.append("section,key,value,passed,tolerance")
        lines.append(f"command,,{report.command},,")
        for key in sorted(report.inputs):
            lines.append(f"input,{key},{_cell(report.inputs[key])},,")
        for key in sorted(report.outputs):
            lines.append(f"output,{key},{_cell(report.outputs[key])},,")
        for c in report.checks:
            lines.append(f"check,{c.name},{fmt_real(c.measured)},{_cell(c.passed)},{fmt_real(c.tolerance)}")
        lines.append(f"duration,duration_ms,{fmt_real(report.duration_ms)},,")
    return "\n".join(lines) + "\n"


def _emit_text(report: RunReport) -> str:
    lines = [f"command: {report.command}"]
    if report.inputs:
        lines.append("inputs:")
        lines.extend(f"  {key}: {_cell(report.inputs[key])}" for key in sorted(report.inputs))
    if report.outputs:
        lines.append("outputs:")
        lines.extend(f"  {key}: {_cell(report.outputs[key])}" for key in sorted(report.outputs))
    if report.checks:
        lines.append("checks:")
        lines.extend(f"  {c.line()}" for c in report.checks)
    lines.append(f"duration_ms: {fmt_real(report.duration_ms)}")
    return "\n".join(lines) + "\n"
