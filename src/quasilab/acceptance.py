"""Acceptance suite: the nine numbered criteria the package must meet.

Every criterion is a pure function returning its named sub-checks with
measured deviations and pinned tolerances; ``run_all`` executes them in
order. Randomized criteria draw from a seeded generator so runs are
reproducible; all of them together finish in a few seconds.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bloch import (
    outcome_probability,
    pc_check,
    predictability_circle,
    random_bloch_vector,
    random_direction,
    to_operator,
    from_operator,
)
from .discrimination import (
    clonability_check,
    clone_protocol,
    discriminate,
    hyperplane_pair,
    overlap,
)
from .highdim import (
    CERTAIN,
    NULL,
    build_probe_state,
    build_violating_state,
    detection_probability,
    entangled_projector,
    probe_magnitudes,
    violates_pc,
)
from .nonlocal_box import (
    SQRT2,
    build_box,
    chsh_settings_for,
    chsh_value,
    setting_tables,
    signalling_deviation,
)
from .operators import ATOL, LAW_ATOL, SPECTRAL_ATOL
from .reporting import CheckResult, RunReport, fmt_real

DEFAULT_SEED = 42


class Criterion:
    """One numbered acceptance criterion with its sub-checks."""

    def __init__(self, number: int, name: str, checks: list[CheckResult]):
        self.number = number
        self.name = name
        self.checks = checks

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


def _axis_vector(r: float) -> np.ndarray:
    return np.array([0.0, 0.0, r])


def chsh_law_criterion() -> Criterion:
    """CHSH value follows 2*sqrt(2)*r on the sub-sqrt(2) branch; at r = 1
    this is the quantum maximum."""
    grid = [1.0, 1.1, 1.2, 1.3, 1.4, 1.4142]
    dev = 0.0
    closed_dev = 0.0
    for r in grid:
        box = build_box(_axis_vector(r))
        closed_dev = max(closed_dev, box.closed_form_dev)
        dev = max(dev, abs(chsh_value(box, chsh_settings_for(r)) - 2.0 * SQRT2 * r))
    return Criterion(
        1,
        "chsh-law",
        [
            CheckResult.at_most("chsh-equals-2sqrt2-r", dev, LAW_ATOL),
            CheckResult.at_most("closed-form-match", closed_dev, SPECTRAL_ATOL),
        ],
    )


def maximal_box_criterion() -> Criterion:
    """Past r = sqrt(2) the tilted settings hold the CHSH value at the
    algebraic maximum 4 with valid, non-signalling joint tables."""
    chsh_dev = 0.0
    prob_excess = 0.0
    signalling = 0.0
    closed_dev = 0.0
    for r in (1.5, 2.0, 3.0):
        box = build_box(_axis_vector(r))
        closed_dev = max(closed_dev, box.closed_form_dev)
        settings = chsh_settings_for(r)
        chsh_dev = max(chsh_dev, abs(chsh_value(box, settings) - 4.0))
        tables = setting_tables(box, settings)
        for table in tables.values():
            prob_excess = max(prob_excess, float(np.max(-table.table)), float(np.max(table.table - 1.0)))
        signalling = max(signalling, signalling_deviation(tables))
    return Criterion(
        2,
        "maximal-box",
        [
            CheckResult.at_most("chsh-equals-4", chsh_dev, LAW_ATOL),
            CheckResult.at_most("joint-probabilities-valid", prob_excess, ATOL),
            CheckResult.at_most("nonsignalling", signalling, ATOL),
            CheckResult.at_most("closed-form-match", closed_dev, SPECTRAL_ATOL),
        ],
    )


def _flip_band_vector(rng: np.random.Generator) -> np.ndarray:
    # |r| - 1 within +-3 ATOL, where both verdicts flip (at 1 + ATOL), less a
    # window around the flip that is wider than the rounding of |r|: inside
    # it the two independent computations may round to opposite sides
    while True:
        excess = rng.uniform(-3 * ATOL, 3 * ATOL)
        if abs(excess - ATOL) > 1e-14:
            return (1.0 + excess) * random_direction(rng)


def pc_psd_equivalence_criterion(seed: int = DEFAULT_SEED, samples: int = 10_000) -> Criterion:
    """Norm bound and operator positivity classify every random vector the
    same way. Every tenth vector lies in the band where both flip."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    for k in range(samples):
        r = _flip_band_vector(rng) if k % 10 == 0 else random_bloch_vector(rng, 0.0, 3.0)
        by_norm = pc_check(r).satisfied
        by_spectrum = to_operator(r).is_positive()
        disagreements += by_norm != by_spectrum
    return Criterion(
        3,
        "pc-psd-equivalence",
        [CheckResult.at_most("classification-disagreements", disagreements, 0.0)],
    )


def predictability_witness_criterion(seed: int = DEFAULT_SEED, samples: int = 1000) -> Criterion:
    """Every norm > 1 vector yields at least two non-colinear directions
    that are simultaneously certain."""
    rng = np.random.default_rng(seed)
    prob_dev = 0.0
    colinear = 0
    for _ in range(samples):
        r = random_bloch_vector(rng, 1.0 + 1e-6, 3.0)
        points = predictability_circle(r).sample(8)
        for n in points:
            prob_dev = max(prob_dev, abs(outcome_probability(r, n, +1) - 1.0))
        colinear += np.linalg.norm(np.cross(points[0], points[2])) <= ATOL
    return Criterion(
        4,
        "predictability-witness",
        [
            CheckResult.at_most("circle-directions-certain", prob_dev, ATOL),
            CheckResult.at_most("witness-pairs-non-colinear", colinear, 0.0),
        ],
    )


def clonability_criterion(seed: int = DEFAULT_SEED, samples: int = 10_000) -> Criterion:
    """Joint-clonability flag agrees with the trace fixed-point test, with
    exact hyperplane constructions hitting both branches."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    margin = np.inf
    for _ in range(samples):
        r = random_bloch_vector(rng, 0.0, 3.0)
        rp = random_bloch_vector(rng, 0.0, 3.0)
        t = overlap(r, rp)
        fixed_point = abs(t * t - t) <= LAW_ATOL
        disagreements += fixed_point != clonability_check(r, rp)
        margin = min(margin, abs(t * t - t))
    exact_dev = 0.0
    for _ in range(100):
        norm = rng.uniform(1.2, 3.0)
        r = norm * random_direction(rng)
        cap = np.sqrt(1.0 - 1.0 / norm**2)
        y, z = rng.uniform(-cap / 2, cap / 2, size=2)
        pair = hyperplane_pair(r, y, z)
        for rp in (pair.r_plus, pair.r_minus):
            if not clonability_check(r, rp):
                exact_dev = 1.0
            t = overlap(r, rp)
            exact_dev = max(exact_dev, abs(t * t - t))
    return Criterion(
        5,
        "clonability-fixed-point",
        [
            CheckResult.at_most("agreement-disagreements", disagreements, 0.0),
            CheckResult.above("generic-pairs-margin", margin, LAW_ATOL),
            CheckResult.at_most("hyperplane-instances-exact", exact_dev, LAW_ATOL),
        ],
    )


def _random_admissible_instance(rng: np.random.Generator):
    norm = rng.uniform(1.05, 3.0)
    r = norm * random_direction(rng)
    cap = np.sqrt(1.0 - 1.0 / norm**2)
    rho = np.sqrt(rng.uniform(0.0, 1.0)) * cap
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return r, rho * np.cos(angle), rho * np.sin(angle)


def discrimination_criterion(seed: int = DEFAULT_SEED, samples: int = 1000) -> Criterion:
    """Hyperplane states are identified with certainty despite strictly
    positive overlap, and the clone output is the exact doubled state."""
    rng = np.random.default_rng(seed)
    det_dev = 0.0
    min_overlap = np.inf
    clone_dev = 0.0
    for _ in range(samples):
        r, y, z = _random_admissible_instance(rng)
        pair = hyperplane_pair(r, y, z)
        min_overlap = min(min_overlap, overlap(pair.r_plus, pair.r_minus))
        for which in (+1, -1):
            label, q_plus, q_minus = discriminate(pair, which)
            q_hit, q_miss = (q_plus, q_minus) if which == +1 else (q_minus, q_plus)
            det_dev = max(det_dev, abs(q_hit - 1.0), abs(q_miss))
            clone_dev = max(clone_dev, clone_protocol(pair, label, which)[1])
    return Criterion(
        6,
        "perfect-discrimination",
        [
            CheckResult.at_most("deterministic-detection", det_dev, SPECTRAL_ATOL),
            CheckResult.above("overlap-strictly-positive", min_overlap, 0.0),
            CheckResult.at_most("clone-output-exact", clone_dev, ATOL),
        ],
    )


def _random_tail(rng: np.random.Generator, dim: int, epsilon: float) -> np.ndarray:
    if dim == 2:
        return np.array([-epsilon])
    while True:
        tail = -epsilon * rng.dirichlet(np.ones(dim - 1))
        jitter = rng.normal(0.0, 0.3, size=dim - 1)
        tail = tail + jitter - jitter.mean()
        if tail.max() < 1.0 + epsilon - 1e-6 and abs(tail.sum() + epsilon) <= ATOL:
            return tail


def highdim_grid_criterion(seed: int = DEFAULT_SEED) -> Criterion:
    """Probe pinning and doubled-projector detection across the full
    (dimension, epsilon, spectrum, phases) grid."""
    rng = np.random.default_rng(seed)
    pin_dev = 0.0
    det_dev = 0.0
    oracle_dev = 0.0
    for dim in range(2, 7):
        for epsilon in (0.1, 0.5, 1.0, 2.0):
            tails = [None] + [_random_tail(rng, dim, epsilon) for _ in range(3)]
            for tail in tails:
                basis = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
                vs = build_violating_state(dim, epsilon, lambdas=tail, basis=basis)
                oracle_dev = max(oracle_dev, entangled_projector(vs)[1])
                for phases in (None, rng.uniform(0.0, 2.0 * np.pi, size=dim)):
                    certain = build_probe_state(vs, CERTAIN, phases=phases)
                    null = build_probe_state(vs, NULL, phases=phases)
                    for probe, target in ((certain, 1.0), (null, 0.0)):
                        pin_dev = max(pin_dev, probe.pinning_dev)
                        det_dev = max(det_dev, abs(detection_probability(vs, probe) - target))
    mags = probe_magnitudes(3, 0.5, CERTAIN)
    weight_dev = abs(mags[0] - 5.0 / 7.0)
    mags = probe_magnitudes(3, 0.5, NULL)
    weight_dev = max(weight_dev, abs(mags[0] - 1.0 / 7.0))
    return Criterion(
        7,
        "highdim-grid",
        [
            CheckResult.at_most("probe-pinning", pin_dev, ATOL),
            CheckResult.at_most("doubled-projector-detection", det_dev, SPECTRAL_ATOL),
            CheckResult.at_most("projector-oracle", oracle_dev, SPECTRAL_ATOL),
            CheckResult.at_most("closed-form-weights-exact", weight_dev, 0.0),
        ],
    )


def matched_qubit_instance(epsilon: float):
    """The qubit picture of a dim-2 violating state: resource along z with
    norm 1 + 2*epsilon, hyperplane offset chosen so the two plane states
    are exactly the zero-phase probe vectors."""
    norm = 1.0 + 2.0 * epsilon
    r = _axis_vector(norm)
    y = 2.0 * np.sqrt(epsilon * (epsilon + 1.0)) / norm
    return r, hyperplane_pair(r, y, 0.0)


def cross_consistency_criterion(seed: int = DEFAULT_SEED) -> Criterion:
    """dim-2 doubled-projector discrimination matches the qubit machinery
    instance by instance, and the three-level diagonal example stays on
    the satisfying side of the bound."""
    dev = 0.0
    for epsilon in (0.1, 0.5, 1.0, 2.0):
        r, pair = matched_qubit_instance(epsilon)
        vs = build_violating_state(2, epsilon)
        dev = max(dev, float(np.max(np.abs(vs.state.matrix - to_operator(r).matrix))))
        p1, _ = entangled_projector(vs)
        p0 = np.eye(4) - p1
        dev = max(dev, float(np.max(np.abs(p1 - pair.povm.p_plus))), float(np.max(np.abs(p0 - pair.povm.p_minus))))
        for which, target in ((+1, CERTAIN), (-1, NULL)):
            probe = build_probe_state(vs, target)
            plane_state = pair.r_plus if which == +1 else pair.r_minus
            dev = max(dev, float(np.max(np.abs(from_operator(np.outer(probe.vector, probe.vector.conj())) - plane_state))))
            _, q_plus, q_minus = discriminate(pair, which)
            q_qubit = q_plus if which == +1 else q_minus
            q_high = detection_probability(vs, probe)
            expected = 1.0 if which == +1 else 0.0
            dev = max(dev, abs(q_qubit - 1.0), abs(q_high - expected))

    three_level = np.diag([0.85, 0.25, -0.1]).astype(complex)
    rng = np.random.default_rng(seed)
    kets = rng.normal(size=(100_000, 3)) + 1j * rng.normal(size=(100_000, 3))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    max_form = float(np.max(np.einsum("ki,ij,kj->k", kets.conj(), three_level, kets).real))
    return Criterion(
        8,
        "cross-consistency",
        [
            CheckResult.at_most("qubit-highdim-match", dev, SPECTRAL_ATOL),
            CheckResult.at_most("three-level-not-classified-violating", float(violates_pc(three_level)), 0.0),
            CheckResult.at_most("three-level-example-satisfies", max_form, 1.0 - LAW_ATOL),
        ],
    )


def pipeline_oracle_criterion(seed: int = DEFAULT_SEED, samples: int = 1000) -> Criterion:
    """The unitary pipeline reproduces the closed-form box for random
    resources, with genuinely unitary gates."""
    rng = np.random.default_rng(seed)
    box_dev = 0.0
    unitary_dev = 0.0
    for k in range(samples):
        norm = rng.uniform(1.0 + 1e-9, 3.0) if k % 4 else rng.uniform(0.0, 1.0)
        box = build_box(norm * random_direction(rng))
        box_dev = max(box_dev, box.closed_form_dev)
        unitary_dev = max(unitary_dev, box.unitarity_dev)
    return Criterion(
        9,
        "pipeline-oracle",
        [
            CheckResult.at_most("pipeline-matches-closed-form", box_dev, SPECTRAL_ATOL),
            CheckResult.at_most("pipeline-unitarity", unitary_dev, ATOL),
        ],
    )


def run_all(seed: int = DEFAULT_SEED) -> list[Criterion]:
    return [
        chsh_law_criterion(),
        maximal_box_criterion(),
        pc_psd_equivalence_criterion(seed),
        predictability_witness_criterion(seed),
        clonability_criterion(seed),
        discrimination_criterion(seed),
        highdim_grid_criterion(seed),
        cross_consistency_criterion(seed),
        pipeline_oracle_criterion(seed),
    ]


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
