"""Command-line front end: run the constructions, sweeps, and the
verification suite; emit machine-readable reports.

Each handler returns its outputs and checks. ``main`` alone assembles the
report: the subcommand's name, its parsed flags as the echoed inputs, and
the time of one timer around the handler. Handlers read their
measurements from the library's experiments: ``chsh_experiment``,
``discrimination_experiment`` and ``probe_experiment``.

Exit codes: 0 when all checks of a run pass, 1 when some check fails
(failing names go to stderr), 2 for unusable flags or inputs.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from dataclasses import replace

import numpy as np

from . import acceptance
from .bloch import along_z, pc_check, predictability_circle, to_operator
from .discrimination import clone_protocol, discrimination_experiment, hyperplane_pair, overlap
from .highdim import build_violating_state, entangled_projector, probe_experiment
from .nonlocal_box import chsh_experiment, signalling_deviation
from .operators import ATOL, LAW_ATOL, SPECTRAL_ATOL, expectation, require
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

# Largest --steps, --trials and --points: a request at the bound takes under
# 1 s and 500 MB in its slowest format (2-CPU Intel Xeon, one BLAS thread):
# chsh-sweep 0.4 s at 10,000 steps (0.9 s at 20,000), discriminate 360 MB at
# 2e7 trials (441 MB at 2.5e7), planes 0.5 s at 50,000 points (0.9 s at 8e4).
MAX_STEPS = 10_000
MAX_TRIALS = 20_000_000
MAX_POINTS = 50_000


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


def _integer(least: int, most: float, text: str) -> int:
    """Argparse type of the integer flags, each given its range with
    ``functools.partial``: an integer from ``least`` to ``most``. --steps,
    --trials and --points count from 1 to their bound, --d from 2 to
    ``MAX_HIGHDIM_DIM``; --seed takes any integer from 0, as numpy's
    generators do."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if n < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
    if n > most:
        raise argparse.ArgumentTypeError(f"must be at most {most}, got {n}")
    return n


def _run_pc_check(args):
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
    return outputs, [CheckResult.at_most("complementarity", result.norm - 1.0, ATOL)]


def _run_box(args):
    norm = pc_check(args.r).norm
    require(norm <= MAX_BOX_NORM, "|r| must be at most {:g}, got {:.6g}", MAX_BOX_NORM, norm)
    box, settings, value, expected, tables = chsh_experiment(args.r, tsirelson=args.settings == "tsirelson")

    outputs = {
        "r_norm": box.r,
        "chsh": value,
        "chsh_expected": expected,
        "box_eigenvalues": box.state.eigenvalues[::-1],
        "all_tables_valid": tables.valid.all(),
    }
    for name, vec in (("a1", settings.a1), ("a2", settings.a2), ("b1", settings.b1), ("b2", settings.b2)):
        outputs[f"setting_{name}"] = vec
    for i, j in np.ndindex(2, 2):
        outputs[f"p_a{i + 1}_b{j + 1}"] = tables.table[i, j].ravel()
        outputs[f"valid_a{i + 1}_b{j + 1}"] = tables.valid[i, j]
    return outputs, [
        CheckResult.at_most("chsh-law", abs(value - expected), LAW_ATOL),
        CheckResult.at_most("closed-form-match", box.closed_form_dev, SPECTRAL_ATOL),
        CheckResult.at_most("pipeline-unitarity", box.unitarity_dev, ATOL),
        CheckResult.at_most("nonsignalling", signalling_deviation(tables), ATOL),
    ]


def _run_chsh_sweep(args):
    require(0 < args.r_min <= args.r_max, "sweep needs 0 < r-min <= r-max")
    require(args.r_max <= MAX_BOX_NORM, "r-max must be at most {:g}, got {:.6g}", MAX_BOX_NORM, args.r_max)
    grid = np.linspace(args.r_min, args.r_max, args.steps)
    boxes, _, value, _, tables = chsh_experiment(along_z(grid))
    outputs = {"r": grid, "chsh": value, "valid": tables.valid.all(axis=(1, 2))}
    return outputs, [CheckResult.at_most("closed-form-match", boxes.closed_form_dev, SPECTRAL_ATOL)]


def _run_discriminate(args):
    pair = hyperplane_pair(args.r, args.y, args.z)
    # entry 0 hides r+, entry 1 hides r-
    _, labels, q_plus, q_minus, deviation = discrimination_experiment(pair)

    rng = np.random.default_rng(args.seed)
    hidden = rng.choice([+1, -1], size=args.trials)
    correct = np.count_nonzero(np.where(hidden == +1, labels[0], labels[1]) == hidden)

    outputs = {
        "r_plus": pair.r_plus,
        "r_minus": pair.r_minus,
        "overlap": overlap(pair.r_plus, pair.r_minus),
        "q_plus_given_plus": q_plus[0],
        "q_minus_given_plus": q_minus[0],
        "q_minus_given_minus": q_minus[1],
        "q_plus_given_minus": q_plus[1],
        "trials": args.trials,
        "correct": correct,
    }
    return outputs, [
        CheckResult.at_most("deterministic-detection", deviation, SPECTRAL_ATOL),
        CheckResult.at_most("all-trials-correct", args.trials - correct, 0.0),
    ]


def _run_clone_demo(args):
    pair = hyperplane_pair(args.r, args.y, args.z)
    outputs = {"r_plus": pair.r_plus, "r_minus": pair.r_minus, "overlap": overlap(pair.r_plus, pair.r_minus)}
    which, labels, _, _, _ = discrimination_experiment(pair)
    out, clone_dev = clone_protocol(pair, labels, which)
    # Tr[(rho (x) rho) out], with out standing in for rho (x) rho:
    # clone-output-exact judges how far apart the two are.
    fidelities = expectation(out.matrix, out)
    # Python floats' squares (C pow): a vectorized square may differ in the last bit
    purity_sq = [overlap(v, v) ** 2 for v in (pair.r_plus, pair.r_minus)]
    for k, name in enumerate(("plus", "minus")):
        outputs[f"label_{name}"] = labels[k]
        outputs[f"fidelity_{name}"] = fidelities[k]
        outputs[f"purity_squared_{name}"] = purity_sq[k]
    return outputs, [
        CheckResult.at_most("clone-output-exact", clone_dev, ATOL),
        CheckResult.at_most("fidelity-matches-purity-squared", np.abs(fidelities - purity_sq), ATOL),
    ]


def _run_highdim(args):
    message = "epsilon must be finite and at most {:g}, got {:.6g}"
    require(-np.inf < args.epsilon <= MAX_HIGHDIM_EPSILON, message, MAX_HIGHDIM_EPSILON, args.epsilon)
    # --lambdas absent or given no values builds the uniform tail; the tail
    # built is echoed, so the echo given back replays the state
    vs = build_violating_state(args.d, args.epsilon, lambdas=args.lambdas or None)
    args.lambdas = vs.lambdas
    rng = np.random.default_rng(args.seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=args.d) if args.phases == "random" else None
    certain, null, q1, pinning, detection = probe_experiment(vs, phases)
    _, oracle_dev = entangled_projector(vs)
    outputs = {
        "spectrum": vs.spectrum,
        "leading_weight_certain": certain.magnitudes_sq[0],
        "leading_weight_null": null.magnitudes_sq[0],
        "probe_overlap": float(np.abs(certain.vector.conj() @ null.vector)),
        "q1_certain": q1[0],
        "q1_null": q1[1],
    }
    return outputs, [
        CheckResult.at_most("probe-pinning", pinning, ATOL),
        CheckResult.at_most("doubled-projector-detection", detection, SPECTRAL_ATOL),
        CheckResult.at_most("projector-oracle", oracle_dev, SPECTRAL_ATOL),
    ]


def _run_planes(args):
    check = pc_check(args.r)
    message = "the certainty planes cross the ball only for norm > 1 + {:g}, got {:.15g}"
    require(not check.satisfied, message, ATOL, check.norm)
    circle = predictability_circle(args.r)
    mirror = replace(circle, center=-circle.center)  # r.x = -1 plane: same frame, opposite centre
    points = np.concatenate((circle.sample(args.points), mirror.sample(args.points)))
    thetas = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
    plane = np.repeat([+1, -1], args.points)
    # unit and on r_hat.p = +-1/|r|: on this scale rounding stays near 1e-16
    # at any |r|, where r.p = +-1 drifts by |r| times that
    off_sphere = np.abs(np.linalg.norm(points, axis=1) - 1.0)
    off_plane = np.abs(points @ circle.plane_normal - plane / check.norm)
    outputs = {"plane": plane, "theta": np.tile(thetas, 2), "x": points[:, 0], "y": points[:, 1], "z": points[:, 2]}
    return outputs, [CheckResult.at_most("points-on-certainty-planes", [off_sphere, off_plane], ATOL)]


def _run_verify_all(args):
    criteria = acceptance.run_all(seed=args.seed)
    for criterion in criteria:
        print(criterion.line(), file=sys.stderr)
    report = acceptance.as_report(criteria, seed=args.seed)
    return report.outputs, report.checks


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process. Each handler
    reads the package's functions when it runs, not when it is bound."""
    parser = argparse.ArgumentParser(
        prog="quasilab",
        description="Constructions over unit-trace Hermitian preparations that "
        "may have negative eigenvalues: complementarity checks, superquantum "
        "CHSH boxes, perfect discrimination and cloning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, default_format, help_text):
        p = sub.add_parser(name, help=help_text)
        # a value that starts as a real does (-1,0,0, -1e-3, -.5, -inf) is a
        # value, not only a plain negative number: no option starts so
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
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
    p.add_argument("--steps", type=functools.partial(_integer, 1, MAX_STEPS), required=True)

    p = add("discriminate", _run_discriminate, "json", "identify hyperplane states with certainty")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--trials", type=functools.partial(_integer, 1, MAX_TRIALS), default=12)
    p.add_argument("--seed", type=functools.partial(_integer, 0, np.inf), default=42)

    p = add("clone-demo", _run_clone_demo, "json", "discriminate and duplicate both hyperplane states")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)

    p = add("highdim", _run_highdim, "json", "d-dimensional probe discrimination")
    p.add_argument("--d", type=functools.partial(_integer, 2, MAX_HIGHDIM_DIM), required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--lambdas", type=float, nargs="*", default=None)
    p.add_argument("--phases", choices=("zero", "random"), default="zero")
    p.add_argument("--seed", type=functools.partial(_integer, 0, np.inf), default=42)

    p = add("planes", _run_planes, "csv", "plot data for the two certainty planes in the Bloch ball")
    p.add_argument("--r", type=_vector, required=True, metavar="X,Y,Z")
    p.add_argument("--points", type=functools.partial(_integer, 1, MAX_POINTS), default=64)

    p = add("verify-all", _run_verify_all, "text", "run the full acceptance suite")
    p.add_argument("--seed", type=functools.partial(_integer, 0, np.inf), default=42)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        outputs, checks = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    duration_ms = (time.perf_counter() - start) * 1000.0
    # the handler may have normalised a flag, so the echo is read after it ran
    inputs = {key: value for key, value in vars(args).items() if key not in ("command", "func", "format")}
    report = RunReport(args.command, inputs, outputs, checks, duration_ms)
    sys.stdout.write(emit_report(report, args.format))
    if not report.all_passed:
        print("failed checks: " + ", ".join(report.failing()), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
