"""Acceptance suite: the nine numbered criteria the package must meet.

Every criterion is a pure function returning its named sub-checks with
measured deviations and pinned tolerances. ``run_all`` runs them in order
and is the one place that numbers and names them; ``as_report`` turns what
it returns into the ``verify-all`` report. Randomized criteria draw from a
seeded generator so runs are reproducible. Every randomized criterion
(3, 4, 5, 6, 7 and 9) draws in bulk: one generator call per kind of draw,
whatever its sample count; a draw it rejects is drawn again in a bulk
round. Criteria 5 and 6 draw their hyperplane instances through one
sampler. Each criterion then computes on the stack of its instances with
one call per operation, measuring through ``chsh_experiment`` (criteria 1
and 2), ``discrimination_experiment`` (6 and 8) and ``probe_experiment``
(7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bloch import (
    along_z,
    outcome_probability,
    pc_check,
    predictability_circle,
    random_bloch_vector,
    scale_directions,
    to_operator,
    from_operator,
)
from .discrimination import clonability_check, clone_protocol, discrimination_experiment, hyperplane_pair, overlap
from .highdim import (
    CERTAIN,
    NULL,
    build_violating_state,
    entangled_projector,
    probe_experiment,
    probe_magnitudes,
    violates_pc,
)
from .nonlocal_box import build_box, chsh_experiment, signalling_deviation
from .operators import ATOL, LAW_ATOL, SPECTRAL_ATOL
from .reporting import CheckResult, RunReport, fmt_real

DEFAULT_SEED = 42


@dataclass(frozen=True)
class Criterion:
    """One numbered acceptance criterion with its sub-checks, as ``run_all``
    numbers and names it."""

    number: int
    name: str
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        worst = max(self.checks, key=lambda c: (not c.passed, c.headroom))
        return (
            f"[{tag}] criterion {self.number}: {self.name} "
            f"(worst={worst.name}, measured={fmt_real(worst.measured)}, tolerance={fmt_real(worst.tolerance)})"
        )


def chsh_law_criterion() -> list[CheckResult]:
    """CHSH value follows 2*sqrt(2)*r on the sub-sqrt(2) branch; at r = 1
    this is the quantum maximum."""
    boxes, _, value, law, _ = chsh_experiment(along_z([1.0, 1.1, 1.2, 1.3, 1.4, 1.4142]))
    return [
        CheckResult.at_most("chsh-equals-2sqrt2-r", np.abs(value - law), LAW_ATOL),
        CheckResult.at_most("closed-form-match", boxes.closed_form_dev, SPECTRAL_ATOL),
    ]


def maximal_box_criterion() -> list[CheckResult]:
    """Past r = sqrt(2) the tilted settings hold the CHSH value at the
    algebraic maximum 4 with valid, non-signalling joint tables."""
    boxes, _, value, law, tables = chsh_experiment(along_z([1.5, 2.0, 3.0]))
    # how far each entry lies outside [0, 1]
    prob_excess = np.maximum(0.0, np.maximum(-tables.table, tables.table - 1.0))
    return [
        CheckResult.at_most("chsh-equals-4", np.abs(value - law), LAW_ATOL),
        CheckResult.at_most("joint-probabilities-valid", prob_excess, ATOL),
        CheckResult.at_most("nonsignalling", signalling_deviation(tables), ATOL),
        CheckResult.at_most("closed-form-match", boxes.closed_form_dev, SPECTRAL_ATOL),
    ]


def _pc_psd_draws(rng: np.random.Generator, samples: int) -> np.ndarray:
    # Drawn in bulk, as every randomized criterion is. Norms are uniform in
    # [0, 3) (3u has the bits of rng.uniform(0, 3)), but every tenth has
    # |r| - 1 within +-3 ATOL, where both verdicts flip (at 1 + ATOL), less
    # a window around the flip wider than the rounding of |r|, where the two
    # independent computations may round apart.
    norms = 3.0 * rng.random(samples)
    excess = rng.uniform(-3 * ATOL, 3 * ATOL, size=norms[::10].shape)
    while np.any(near := np.abs(excess - ATOL) <= 1e-14):
        excess[near] = rng.uniform(-3 * ATOL, 3 * ATOL, size=np.count_nonzero(near))
    norms[::10] = 1.0 + excess
    return scale_directions(rng.standard_normal((samples, 3)), norms)


def pc_psd_equivalence_criterion(seed: int = DEFAULT_SEED, samples: int = 10_000) -> list[CheckResult]:
    """Norm bound and operator positivity classify every random vector the
    same way. Every tenth vector lies in the band where both flip."""
    rs = _pc_psd_draws(np.random.default_rng(seed), samples)
    disagreements = np.sum(pc_check(rs).satisfied != to_operator(rs).is_positive())
    return [CheckResult.at_most("classification-disagreements", disagreements, 0.0)]


def _witness_draws(rng: np.random.Generator, samples: int) -> np.ndarray:
    return random_bloch_vector(rng, np.full(samples, 1.0 + 1e-6), 3.0)


def predictability_witness_criterion(seed: int = DEFAULT_SEED, samples: int = 1000) -> list[CheckResult]:
    """Every norm > 1 vector yields at least two non-colinear directions
    that are simultaneously certain."""
    rs = _witness_draws(np.random.default_rng(seed), samples)
    points = predictability_circle(rs).sample(8)
    probs = outcome_probability(rs[:, None], points, +1)
    cross = np.cross(points[:, 0], points[:, 2])
    colinear = np.sum(np.sqrt(np.vecdot(cross, cross)) <= ATOL)
    return [
        CheckResult.at_most("circle-directions-certain", np.abs(probs - 1.0), ATOL),
        CheckResult.at_most("witness-pairs-non-colinear", colinear, 0.0),
    ]


def _clonability_draws(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """``samples`` pairs r, r' of norms uniform in [0, 3), r drawn first."""
    draws = random_bloch_vector(rng, np.zeros((samples, 2)), 3.0)
    return draws[:, 0], draws[:, 1]


def _admissible_draws(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resources, y and z of ``samples`` admissible hyperplane instances, as
    criteria 5 and 6 draw them: norm uniform in [1.05, 3), y + iz uniform in
    the disc of radius sqrt(1 - 1/norm^2). The generator draws every norm,
    then every direction, then every radius's uniform, then every angle."""
    norms = rng.uniform(1.05, 3.0, samples)
    normals = rng.standard_normal((samples, 3))
    rho = np.sqrt(rng.random(samples)) * np.sqrt(1.0 - 1.0 / norms**2)
    angle = rng.uniform(0.0, 2.0 * np.pi, samples)
    return scale_directions(normals, norms), rho * np.cos(angle), rho * np.sin(angle)


def clonability_criterion(seed: int = DEFAULT_SEED, samples: int = 10_000) -> list[CheckResult]:
    """Joint-clonability flag agrees with the trace fixed-point test, with
    exact hyperplane constructions hitting both branches."""
    rng = np.random.default_rng(seed)
    rs, rps = _clonability_draws(rng, samples)
    t = overlap(rs, rps)
    fixed_point_gap = np.abs(t * t - t)
    disagreements = np.sum((fixed_point_gap <= LAW_ATOL) != clonability_check(rs, rps))

    pairs = hyperplane_pair(*_admissible_draws(rng, 100))
    members = np.stack((pairs.r_plus, pairs.r_minus))
    t = overlap(pairs.resource, members)
    # 1 for a member the clonability flag misses, else its fixed-point gap
    exact_dev = np.maximum(np.logical_not(clonability_check(pairs.resource, members)), np.abs(t * t - t))
    return [
        CheckResult.at_most("agreement-disagreements", disagreements, 0.0),
        CheckResult.above("generic-pairs-margin", fixed_point_gap, LAW_ATOL),
        CheckResult.at_most("hyperplane-instances-exact", exact_dev, LAW_ATOL),
    ]


def discrimination_criterion(seed: int = DEFAULT_SEED, samples: int = 1000) -> list[CheckResult]:
    """Hyperplane states are identified with certainty despite strictly
    positive overlap, and the clone output is the exact doubled state."""
    pairs = hyperplane_pair(*_admissible_draws(np.random.default_rng(seed), samples))
    which, labels, _, _, deviation = discrimination_experiment(pairs)
    return [
        CheckResult.at_most("deterministic-detection", deviation, SPECTRAL_ATOL),
        CheckResult.above("overlap-strictly-positive", overlap(pairs.r_plus, pairs.r_minus), 0.0),
        CheckResult.at_most("clone-output-exact", clone_protocol(pairs, labels, which)[1], ATOL),
    ]


def _highdim_grid_draws(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Epsilons, tails, bases and phases of criterion 7's 16 states of one
    dimension: per epsilon the uniform tail and three random ones, each
    random tail -epsilon times Dirichlet weights plus centred jitter, then a
    random unitary basis and random phases per state. At d = 2 every tail
    is [-epsilon]. The generator draws every tail's weights, then their
    jitter; the tails that fail max < 1 + epsilon - 1e-6 or |sum + epsilon|
    <= ATOL are drawn again, in further rounds of the same two calls; then
    every basis's real and imaginary normals, then every phase."""
    epsilons = np.repeat((0.1, 0.5, 1.0, 2.0), 4)
    tails = np.repeat(-epsilons[:, None] / (dim - 1), dim - 1, axis=1)
    redraw = (np.arange(16) % 4 != 0) & (dim > 2)
    while np.any(redraw):
        count, eps = np.count_nonzero(redraw), epsilons[redraw]
        weights = rng.dirichlet(np.ones(dim - 1), size=count)
        jitter = rng.normal(0.0, 0.3, size=(count, dim - 1))
        drawn = -eps[:, None] * weights + jitter - jitter.mean(axis=1, keepdims=True)
        tails[redraw] = drawn
        accepted = (drawn.max(axis=1) < 1.0 + eps - 1e-6) & (np.abs(drawn.sum(axis=1) + eps) <= ATOL)
        redraw[redraw] = ~accepted
    normals = rng.standard_normal((2, 16, dim, dim))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(16, dim))
    return epsilons, tails, np.linalg.qr(normals[0] + 1j * normals[1])[0], phases


def highdim_grid_criterion(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Probe pinning and doubled-projector detection across the full
    (dimension, epsilon, spectrum, phases) grid, one stack of 16 states
    per dimension."""
    rng = np.random.default_rng(seed)
    pin_devs, det_devs, oracle_devs = [], [], []
    for dim in range(2, 7):
        epsilons, tails, bases, phases = _highdim_grid_draws(rng, dim)
        vs = build_violating_state(dim, epsilons, lambdas=tails, basis=bases)
        oracle_devs.append(entangled_projector(vs)[1])
        for probe_phases in (None, phases):
            *_, pinning, detection = probe_experiment(vs, probe_phases)
            pin_devs.append(pinning)
            det_devs.append(detection)
    weight_devs = [
        abs(probe_magnitudes(3, 0.5, CERTAIN)[0] - 5.0 / 7.0),
        abs(probe_magnitudes(3, 0.5, NULL)[0] - 1.0 / 7.0),
    ]
    return [
        CheckResult.at_most("probe-pinning", pin_devs, ATOL),
        CheckResult.at_most("doubled-projector-detection", det_devs, SPECTRAL_ATOL),
        CheckResult.at_most("projector-oracle", oracle_devs, SPECTRAL_ATOL),
        CheckResult.at_most("closed-form-weights-exact", weight_devs, 0.0),
    ]


def matched_qubit_instance(epsilon):
    """The qubit picture of a dim-2 violating state: resource along z with
    norm 1 + 2*epsilon, hyperplane offset chosen so the two plane states
    are exactly the zero-phase probe vectors (for an array of epsilons, one per epsilon)."""
    norm = 1.0 + 2.0 * epsilon
    r = along_z(norm)
    y = 2.0 * np.sqrt(epsilon * (epsilon + 1.0)) / norm
    return r, hyperplane_pair(r, y, 0.0)


def _gershgorin_bound(m: np.ndarray) -> float:
    """An upper bound on <psi|m|psi> over unit kets psi for a Hermitian m,
    without an eigendecomposition or a sample: the right edge of the
    largest Gershgorin disc, max_i (Re m_ii + sum_{j != i} |m_ij|). It
    equals the largest entry of a diagonal m."""
    diagonal = np.diagonal(m)
    radii = np.abs(m - np.diag(diagonal)).sum(axis=1)
    return float(np.max(diagonal.real + radii))


def cross_consistency_criterion() -> list[CheckResult]:
    """dim-2 doubled-projector discrimination matches the qubit machinery
    instance by instance, and the three-level diagonal example stays on
    the satisfying side of the bound. The example is judged by its
    Gershgorin bound, which no quadratic form <psi|A|psi> on a unit ket
    exceeds: a proof that the supremum stays below 1, where the largest of
    sampled forms could only under-estimate it."""
    epsilons = np.array([0.1, 0.5, 1.0, 2.0])
    rs, pairs = matched_qubit_instance(epsilons)
    vs = build_violating_state(2, epsilons)
    p1, _ = entangled_projector(vs)
    which, _, _, _, qubit_detection = discrimination_experiment(pairs)
    certain, null, _, _, detection = probe_experiment(vs)
    # row 0 holds r+ and the certain probe, row 1 holds r- and the null one
    vectors = np.stack((certain.vector, null.vector))
    plane_dev = from_operator(vectors[..., :, None] * vectors.conj()[..., None, :]) - pairs.member(which)
    devs = [vs.state.matrix - to_operator(rs).matrix, p1 - pairs.povm.p_plus, np.eye(4) - p1 - pairs.povm.p_minus]
    devs += [plane_dev, qubit_detection, detection]
    dev = np.concatenate([np.abs(d).ravel() for d in devs])

    three_level = np.diag([0.85, 0.25, -0.1]).astype(complex)
    return [
        CheckResult.at_most("qubit-highdim-match", dev, SPECTRAL_ATOL),
        CheckResult.at_most("three-level-not-classified-violating", float(violates_pc(three_level)), 0.0),
        CheckResult.at_most("three-level-example-satisfies", _gershgorin_bound(three_level), 1.0 - LAW_ATOL),
    ]


def _pipeline_draws(rng: np.random.Generator, samples: int) -> np.ndarray:
    # every fourth resource inside the unit ball, the rest outside
    outside = np.arange(samples) % 4 != 0
    return random_bloch_vector(rng, np.where(outside, 1.0 + 1e-9, 0.0), np.where(outside, 3.0, 1.0))


def pipeline_oracle_criterion(seed: int = DEFAULT_SEED, samples: int = 1000) -> list[CheckResult]:
    """The unitary pipeline reproduces the closed-form box for random
    resources, with genuinely unitary gates."""
    boxes = build_box(_pipeline_draws(np.random.default_rng(seed), samples))
    return [
        CheckResult.at_most("pipeline-matches-closed-form", boxes.closed_form_dev, SPECTRAL_ATOL),
        CheckResult.at_most("pipeline-unitarity", boxes.unitarity_dev, ATOL),
    ]


def run_all(seed: int = DEFAULT_SEED) -> list[Criterion]:
    """The nine criteria in run order: this table names each one, and its
    place in the table is its number."""
    named = (
        ("chsh-law", chsh_law_criterion()),
        ("maximal-box", maximal_box_criterion()),
        ("pc-psd-equivalence", pc_psd_equivalence_criterion(seed)),
        ("predictability-witness", predictability_witness_criterion(seed)),
        ("clonability-fixed-point", clonability_criterion(seed)),
        ("perfect-discrimination", discrimination_criterion(seed)),
        ("highdim-grid", highdim_grid_criterion(seed)),
        ("cross-consistency", cross_consistency_criterion()),
        ("pipeline-oracle", pipeline_oracle_criterion(seed)),
    )
    return [Criterion(number, name, checks) for number, (name, checks) in enumerate(named, start=1)]


def as_report(criteria: list[Criterion], seed: int, duration_ms: float = 0.0) -> RunReport:
    checks = [replace(sub, name=f"{c.number}-{c.name}/{sub.name}") for c in criteria for sub in c.checks]
    return RunReport(
        command="verify-all",
        inputs={"seed": seed},
        outputs={
            "criteria_total": len(criteria),
            "criteria_passed": sum(c.passed for c in criteria),
            "failed": [c.name for c in criteria if not c.passed],
        },
        checks=checks,
        duration_ms=duration_ms,
    )
