"""Command-line front end: run the constructions, sweeps, and the
verification suite; emit machine-readable reports.

Exit codes: 0 when all checks of a run pass, 1 when some check fails
(failing names go to stderr), 2 for unusable flags or inputs.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

import numpy as np

from . import acceptance
from .bloch import pc_check, predictability_circle, to_operator
from .discrimination import clone_protocol, discriminate, hyperplane_pair, overlap
from .highdim import (
    CERTAIN,
    NULL,
    build_probe_state,
    build_violating_state,
    detection_probability,
    entangled_projector,
)
from .nonlocal_box import (
    SQRT2,
    TSIRELSON_SETTINGS,
    build_box,
    chsh_settings_for,
    chsh_value,
    setting_tables,
    signalling_deviation,
)
from .operators import ATOL, LAW_ATOL, SPECTRAL_ATOL, expectation
from .reporting import CheckResult, RunReport, emit_report

# Largest --d for highdim: the detection probabilities need only d x d
# matrices, but the projector-oracle check builds the dense (d^2)x(d^2)
# projector and its oracle, 16 MB each at d = 32.
MAX_HIGHDIM_DIM = 32

# Largest |r| (and --r-max) for box and chsh-sweep. The box passes every
# check up to |r| = 1e3; from about 3e3 its entries are large enough that
# QuasiState's absolute Hermiticity and trace checks (ATOL) reject it, and
# from about 1e5 the closed-form check fails.
MAX_BOX_NORM = 1e3

# Largest --epsilon for highdim. Over about 1,000 states per epsilon (d =
# 2..32, random bases, tails and phases) every check passes at 5e2, probe
# pinning at up to 0.43 of its tolerance (ATOL); at 1.5e3 pinning fails
# and QuasiState's absolute trace check rejects valid states.
MAX_HIGHDIM_EPSILON = 5e2


def _vector(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {text!r}")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 components, got {len(parts)}")
    v = np.array(parts)
    with np.errstate(over="ignore", invalid="ignore"):
        squared_norm = v @ v
    if not np.isfinite(squared_norm):
        raise argparse.ArgumentTypeError(f"the squared norm of {text!r} is not a finite double")
    return v


def _count(text: str) -> int:
    """Argparse type of --steps, --trials and --points: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _run_pc_check(args) -> RunReport:
    result = pc_check(args.r)
    state = to_operator(args.r)
    outputs = {
        "norm": result.norm,
        "mean_square_sum": result.mean_square_sum,
        "min_eigenvalue": state.min_eigenvalue,
    }
    circle = predictability_circle(args.r)
    if circle is not None:
        outputs["certain_circle_center"] = circle.center
        outputs["certain_circle_radius"] = circle.radius
    return RunReport(
        command="pc-check",
        inputs={"r": args.r},
        outputs=outputs,
        checks=[CheckResult.at_most("complementarity", result.norm - 1.0, ATOL)],
    )


def _resolve_settings(choice: str, norm: float):
    if choice == "tsirelson" or norm == 0.0:
        return TSIRELSON_SETTINGS
    return chsh_settings_for(norm)


def _run_box(args) -> RunReport:
    norm = float(np.linalg.norm(args.r))
    if norm > MAX_BOX_NORM:
        raise ValueError(f"|r| must be at most {MAX_BOX_NORM:g}, got {norm:.6g}")
    box = build_box(args.r)
    settings = _resolve_settings(args.settings, box.r)
    value = chsh_value(box, settings)
    tables = setting_tables(box, settings)

    if args.settings == "auto" and box.r > SQRT2:
        expected = 4.0
    else:
        expected = 2.0 * SQRT2 * box.r
    signalling = signalling_deviation(tables)

    outputs = {
        "r_norm": box.r,
        "chsh": value,
        "chsh_expected": expected,
        "box_eigenvalues": box.state.eigenvalues[::-1],
        "all_tables_valid": all(t.valid for t in tables.values()),
    }
    for name, vec in (("a1", settings.a1), ("a2", settings.a2), ("b1", settings.b1), ("b2", settings.b2)):
        outputs[f"setting_{name}"] = vec
    for (i, j), table in sorted(tables.items()):
        outputs[f"p_a{i}_b{j}"] = table.table.ravel()
        outputs[f"valid_a{i}_b{j}"] = table.valid
    return RunReport(
        command="box",
        inputs={"r": args.r, "settings": args.settings},
        outputs=outputs,
        checks=[
            CheckResult.at_most("chsh-law", abs(value - expected), LAW_ATOL),
            CheckResult.at_most("closed-form-match", box.closed_form_dev, SPECTRAL_ATOL),
            CheckResult.at_most("pipeline-unitarity", box.unitarity_dev, ATOL),
            CheckResult.at_most("nonsignalling", signalling, ATOL),
        ],
    )


def _run_chsh_sweep(args) -> RunReport:
    if args.r_min <= 0 or args.r_max < args.r_min:
        raise ValueError("sweep needs 0 < r-min <= r-max")
    if args.r_max > MAX_BOX_NORM:
        raise ValueError(f"r-max must be at most {MAX_BOX_NORM:g}, got {args.r_max:.6g}")
    grid = np.linspace(args.r_min, args.r_max, args.steps)
    values, valids = [], []
    closed_dev = 0.0
    for r in grid:
        box = build_box(np.array([0.0, 0.0, r]))
        closed_dev = max(closed_dev, box.closed_form_dev)
        settings = chsh_settings_for(r)
        values.append(chsh_value(box, settings))
        valids.append(all(t.valid for t in setting_tables(box, settings).values()))
    return RunReport(
        command="chsh-sweep",
        inputs={"r_min": args.r_min, "r_max": args.r_max, "steps": args.steps},
        outputs={"r": list(grid), "chsh": values, "valid": valids},
        checks=[CheckResult.at_most("closed-form-match", closed_dev, SPECTRAL_ATOL)],
    )


def _run_discriminate(args) -> RunReport:
    pair = hyperplane_pair(args.r, args.y, args.z)
    label_plus, q_plus, miss_plus = discriminate(pair, +1)
    label_minus, miss_minus, q_minus = discriminate(pair, -1)
    det_dev = max(abs(q_plus - 1.0), abs(miss_plus), abs(q_minus - 1.0), abs(miss_minus))

    identified = {+1: label_plus, -1: label_minus}
    rng = np.random.default_rng(args.seed)
    hidden = rng.choice([+1, -1], size=args.trials)
    correct = sum(identified[int(w)] == w for w in hidden)

    return RunReport(
        command="discriminate",
        inputs={"r": args.r, "y": args.y, "z": args.z, "trials": args.trials, "seed": args.seed},
        outputs={
            "r_plus": pair.r_plus,
            "r_minus": pair.r_minus,
            "overlap": overlap(pair.r_plus, pair.r_minus),
            "q_plus_given_plus": q_plus,
            "q_minus_given_plus": miss_plus,
            "q_minus_given_minus": q_minus,
            "q_plus_given_minus": miss_minus,
            "trials": args.trials,
            "correct": int(correct),
        },
        checks=[
            CheckResult.at_most("deterministic-detection", det_dev, SPECTRAL_ATOL),
            CheckResult.at_most("all-trials-correct", args.trials - correct, 0.0),
        ],
    )


def _run_clone_demo(args) -> RunReport:
    pair = hyperplane_pair(args.r, args.y, args.z)
    outputs = {"r_plus": pair.r_plus, "r_minus": pair.r_minus, "overlap": overlap(pair.r_plus, pair.r_minus)}
    clone_dev = 0.0
    fidelity_dev = 0.0
    for which, name in ((+1, "plus"), (-1, "minus")):
        label, _, _ = discriminate(pair, which)
        out, dev = clone_protocol(pair, label, which)
        clone_dev = max(clone_dev, dev)
        target_vec = pair.r_plus if which == +1 else pair.r_minus
        # Tr[(rho (x) rho) out], with out standing in for rho (x) rho:
        # clone-output-exact judges how far apart the two are.
        fidelity = expectation(out.matrix, out)
        purity_sq = (0.5 * (1.0 + float(target_vec @ target_vec))) ** 2
        fidelity_dev = max(fidelity_dev, abs(fidelity - purity_sq))
        outputs[f"label_{name}"] = label
        outputs[f"fidelity_{name}"] = fidelity
        outputs[f"purity_squared_{name}"] = purity_sq
    return RunReport(
        command="clone-demo",
        inputs={"r": args.r, "y": args.y, "z": args.z},
        outputs=outputs,
        checks=[
            CheckResult.at_most("clone-output-exact", clone_dev, ATOL),
            CheckResult.at_most("fidelity-matches-purity-squared", fidelity_dev, ATOL),
        ],
    )


def _run_highdim(args) -> RunReport:
    if args.d > MAX_HIGHDIM_DIM:
        raise ValueError(f"dimension must be at most {MAX_HIGHDIM_DIM}, got {args.d}")
    if not np.isfinite(args.epsilon) or args.epsilon > MAX_HIGHDIM_EPSILON:
        raise ValueError(f"epsilon must be finite and at most {MAX_HIGHDIM_EPSILON:g}, got {args.epsilon:.6g}")
    lambdas = np.array(args.lambdas) if args.lambdas else None
    vs = build_violating_state(args.d, args.epsilon, lambdas=lambdas)
    rng = np.random.default_rng(args.seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=args.d) if args.phases == "random" else None
    certain = build_probe_state(vs, CERTAIN, phases=phases)
    null = build_probe_state(vs, NULL, phases=phases)

    q1_certain = detection_probability(vs, certain)
    q1_null = detection_probability(vs, null)
    det_dev = max(abs(q1_certain - 1.0), abs(q1_null))

    _, oracle_dev = entangled_projector(vs)
    pin_dev = max(certain.pinning_dev, null.pinning_dev)
    return RunReport(
        command="highdim",
        inputs={
            "d": args.d,
            "epsilon": args.epsilon,
            "lambdas": list(args.lambdas) if args.lambdas else "uniform",
            "phases": args.phases,
            "seed": args.seed,
        },
        outputs={
            "spectrum": vs.spectrum,
            "leading_weight_certain": certain.magnitudes_sq[0],
            "leading_weight_null": null.magnitudes_sq[0],
            "probe_overlap": float(np.abs(certain.vector.conj() @ null.vector)),
            "q1_certain": q1_certain,
            "q1_null": q1_null,
        },
        checks=[
            CheckResult.at_most("probe-pinning", pin_dev, ATOL),
            CheckResult.at_most("doubled-projector-detection", det_dev, SPECTRAL_ATOL),
            CheckResult.at_most("projector-oracle", oracle_dev, SPECTRAL_ATOL),
        ],
    )


def _run_planes(args) -> RunReport:
    check = pc_check(args.r)
    if check.satisfied:
        raise ValueError(f"the certainty planes cross the ball only for norm > 1 + {ATOL:g}, got {check.norm:.15g}")
    circle = predictability_circle(args.r)
    mirror = replace(circle, center=-circle.center)  # r.x = -1 plane: same frame, opposite centre
    points = np.concatenate((circle.sample(args.points), mirror.sample(args.points)))
    thetas = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
    return RunReport(
        command="planes",
        inputs={"r": args.r, "points": args.points},
        outputs={
            "plane": [+1] * args.points + [-1] * args.points,
            "theta": [float(t) for t in thetas] * 2,
            "x": [float(v) for v in points[:, 0]],
            "y": [float(v) for v in points[:, 1]],
            "z": [float(v) for v in points[:, 2]],
        },
    )


def _run_verify_all(args) -> RunReport:
    start = time.perf_counter()
    criteria = acceptance.run_all(seed=args.seed)
    duration = (time.perf_counter() - start) * 1000.0
    for criterion in criteria:
        print(criterion.line(), file=sys.stderr)
    return acceptance.as_report(criteria, seed=args.seed, duration_ms=duration)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasilab",
        description="Constructions over unit-trace Hermitian preparations that "
        "may have negative eigenvalues: complementarity checks, superquantum "
        "CHSH boxes, perfect discrimination and cloning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, default_format, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "csv", "text"), default=default_format)
        return p

    p = add("pc-check", _run_pc_check, "json", "check the complementarity bound for a Bloch vector")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")

    p = add("box", _run_box, "json", "build the bipartite box and evaluate CHSH")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--settings", choices=("auto", "tsirelson"), default="auto")

    p = add("chsh-sweep", _run_chsh_sweep, "csv", "CHSH value over a grid of source norms")
    p.add_argument("--r-min", type=float, required=True)
    p.add_argument("--r-max", type=float, required=True)
    p.add_argument("--steps", type=_count, required=True)

    p = add("discriminate", _run_discriminate, "json", "identify hyperplane states with certainty")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--trials", type=_count, default=12)
    p.add_argument("--seed", type=int, default=42)

    p = add("clone-demo", _run_clone_demo, "json", "discriminate and duplicate both hyperplane states")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)

    p = add("highdim", _run_highdim, "json", "d-dimensional probe discrimination")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--lambdas", type=float, nargs="*", default=None)
    p.add_argument("--phases", choices=("zero", "random"), default="zero")
    p.add_argument("--seed", type=int, default=42)

    p = add("planes", _run_planes, "csv", "plot data for the two certainty planes in the Bloch ball")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--points", type=_count, default=64)

    p = add("verify-all", _run_verify_all, "text", "run the full acceptance suite")
    p.add_argument("--seed", type=int, default=42)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.duration_ms == 0.0:
        report.duration_ms = (time.perf_counter() - start) * 1000.0
    sys.stdout.write(emit_report(report, args.format))
    if not report.all_passed:
        print("failed checks: " + ", ".join(report.failing()), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
