"""Qubit operational layer built on three-component Bloch vectors.

Outcome probabilities follow the inner-product rule p = (1 +- r.n)/2, which
stays meaningful for vectors of norm > 1 as long as |r.n| <= 1. Vectors
longer than 1 describe preparations that make non-colinear measurement
directions simultaneously certain; this module locates those directions and
maps every vector onto its unit-trace Hermitian operator (1/2)(I + r.sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ATOL, I2, PAULI, QuasiState


class InvalidDirectionError(ValueError):
    """Measurement direction with |r.n| > 1: the probability rule would
    leave [0, 1], so the direction is rejected rather than clamped."""


def as_bloch_vector(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise ValueError("Bloch vector components must be finite")
    return r


def as_direction(n) -> np.ndarray:
    """Validate a measurement direction: a real unit 3-vector."""
    n = as_bloch_vector(n)
    norm = np.linalg.norm(n)
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"direction must have unit norm, got {norm:.15g}")
    return n


def outcome_probability(r, n, outcome: int) -> float:
    """Probability of ``outcome`` (+1 or -1) for a dichotomic measurement
    along unit direction ``n`` on the preparation ``r``.

    Raises InvalidDirectionError when |r.n| > 1; such directions have no
    genuine probability and are never evaluated.
    """
    r = as_bloch_vector(r)
    n = as_direction(n)
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    rn = float(np.dot(r, n))
    if abs(rn) > 1.0 + ATOL:
        raise InvalidDirectionError(f"|r.n| = {abs(rn):.15g} > 1: no valid probability in this direction")
    return 0.5 * (1.0 + outcome * rn)


@dataclass(frozen=True)
class PcCheck:
    """Verdict of the complementarity check with its diagnostics: the norm
    of the vector and the sum of squared mean values over the canonical
    axes (the two agree, squared, by the Pythagorean identity)."""

    satisfied: bool
    norm: float
    mean_square_sum: float


def pc_check(r) -> PcCheck:
    """Check the complementarity bound: no two non-colinear directions may
    both be certain, which for a qubit is exactly ||r|| <= 1.

    Equivalently the squared mean values along any three orthogonal axes
    must sum to at most 1; the sum for the canonical axes is reported.
    """
    r = as_bloch_vector(r)
    norm = float(np.linalg.norm(r))
    mean_square_sum = float(np.dot(r, r))
    return PcCheck(satisfied=norm <= 1.0 + ATOL, norm=norm, mean_square_sum=mean_square_sum)


def to_operator(r) -> QuasiState:
    """Operator (1/2)(I + r.sigma) of a preparation: always Hermitian with
    unit trace, positive semidefinite exactly when ||r|| <= 1."""
    r = as_bloch_vector(r)
    m = 0.5 * (I2 + r[0] * PAULI[0] + r[1] * PAULI[1] + r[2] * PAULI[2])
    return QuasiState(m)


def from_operator(state: QuasiState | np.ndarray) -> np.ndarray:
    """Bloch vector of a dim-2 preparation: r_i = Tr(state . sigma_i)."""
    m = state.matrix if isinstance(state, QuasiState) else np.asarray(state, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return np.array([np.trace(m @ s).real for s in PAULI])


def projector_for_direction(n) -> np.ndarray:
    """Rank-1 projector (1/2)(I + n.sigma) onto the +1 outcome along ``n``."""
    n = as_direction(n)
    return 0.5 * (I2 + n[0] * PAULI[0] + n[1] * PAULI[1] + n[2] * PAULI[2])


def transverse_frame(r_hat) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed completion (r_hat, m, n) of a unit vector.

    m = normalize(z x r_hat) unless r_hat is within 1e-6 of the z axis, in
    which case m = x; n = r_hat x m. A fixed rule keeps every construction
    that needs a transverse plane reproducible.
    """
    r_hat = as_direction(r_hat)
    z = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(r_hat, z)) < 1.0 - 1e-6:
        m = np.cross(z, r_hat)
        m /= np.linalg.norm(m)
    else:
        m = np.array([1.0, 0.0, 0.0])
    n = np.cross(r_hat, m)
    return m, n


@dataclass(frozen=True)
class PredictabilityCircle:
    """Unit directions along which a preparation of norm > 1 is certain.

    They form the circle {n : r_hat . n = 1/r} on the unit sphere, centred
    at (1/r) r_hat with radius sqrt(1 - 1/r^2) in the plane normal to r_hat.
    """

    center: np.ndarray
    radius: float
    plane_normal: np.ndarray

    def sample(self, n_points: int = 64) -> np.ndarray:
        """Unit directions on the circle at a deterministic angle grid."""
        m, n = transverse_frame(self.plane_normal)
        thetas = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        pts = self.center[None, :] + self.radius * (
            np.cos(thetas)[:, None] * m[None, :] + np.sin(thetas)[:, None] * n[None, :]
        )
        return pts


def predictability_circle(r) -> PredictabilityCircle | None:
    """Locus of measurement directions with outcome probability exactly 1.

    Norm > 1 gives a full circle of non-colinear certain directions; norm
    exactly 1 degenerates to the single point r_hat; norm < 1 gives none
    (1/r > 1 is unreachable by unit vectors).
    """
    r = as_bloch_vector(r)
    norm = float(np.linalg.norm(r))
    if norm < 1.0 - ATOL:
        return None
    r_hat = r / norm
    if norm <= 1.0 + ATOL:
        return PredictabilityCircle(center=r_hat, radius=0.0, plane_normal=r_hat)
    return PredictabilityCircle(
        center=r_hat / norm,
        radius=float(np.sqrt(1.0 - 1.0 / norm**2)),
        plane_normal=r_hat,
    )


def random_direction(rng: np.random.Generator) -> np.ndarray:
    """Uniform unit vector on the sphere."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_bloch_vector(rng: np.random.Generator, min_norm: float, max_norm: float) -> np.ndarray:
    """Random vector with uniform direction and uniform norm in a range."""
    return rng.uniform(min_norm, max_norm) * random_direction(rng)
