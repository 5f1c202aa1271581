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

from .operators import ATOL, PAULI, QuasiState, Stacked, as_number, require

# the next and the previous component of each component, for _cross
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


class InvalidDirectionError(ValueError):
    """Measurement direction with |r.n| > 1: the probability rule would
    leave [0, 1], so the direction is rejected rather than clamped."""


def as_bloch_vectors(r) -> np.ndarray:
    """Validate one Bloch vector (shape (3,)) or a stack of them (shape
    (..., 3)), every component finite."""
    r = np.asarray(r, dtype=float)
    if r.ndim < 1 or r.shape[-1] != 3:
        raise ValueError(f"Bloch vector must have 3 components, got shape {r.shape}")
    # one component at a time: numpy would loop over the rows to reduce a
    # trailing axis of 3
    finite = np.isfinite(r[..., 0]) & np.isfinite(r[..., 1]) & np.isfinite(r[..., 2])
    require(finite, "Bloch vector components must be finite")
    return r


def vector_norms(rs: np.ndarray) -> np.ndarray:
    """sqrt(r.r) of a vector, or row by row of a stack: the norm that
    ``pc_check`` reports, and the bits of the scalar np.linalg.norm(r),
    which np.linalg.norm(rs, axis=1) does not keep in the last place."""
    return np.sqrt(np.vecdot(rs, rs))


def as_directions(n) -> np.ndarray:
    """Validate a measurement direction, a real unit 3-vector, or an (N, 3)
    stack of them."""
    n = as_bloch_vectors(n)
    lengths = vector_norms(n)
    require(np.abs(lengths - 1.0) <= ATOL, "direction must have unit norm, got {:.15g}", lengths)
    return n


def outcome_probability(r, n, outcome: int) -> float:
    """Probability of ``outcome`` (+1 or -1) for a dichotomic measurement
    along unit direction ``n`` on the preparation ``r``.

    Raises InvalidDirectionError when |r.n| > 1; such directions have no
    genuine probability and are never evaluated. For (N, 3) stacks of
    preparations and directions, the probability row by row, with one
    outcome for all rows or one per row.
    """
    rs, ns, outcomes = as_bloch_vectors(r), as_directions(n), np.asarray(outcome)
    require((outcomes == +1) | (outcomes == -1), "outcome must be +1 or -1, got {}", outcomes)
    rn = np.vecdot(rs, ns)
    reach = np.abs(rn)
    message = "|r.n| = {:.15g} > 1: no valid probability in this direction"
    require(reach <= 1.0 + ATOL, message, reach, error=InvalidDirectionError)
    return as_number(0.5 * (1.0 + outcomes * rn))


@dataclass(frozen=True)
class PcCheck(Stacked):
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
    This is the package's one decision of the qubit bound: every other
    norm-side verdict reads ``satisfied``.
    """
    rs = as_bloch_vectors(r)
    mean_square_sum = np.vecdot(rs, rs)
    norm = np.sqrt(mean_square_sum)
    return as_number(PcCheck(satisfied=norm - 1.0 <= ATOL, norm=norm, mean_square_sum=mean_square_sum))


def to_operator(r) -> QuasiState:
    """Operator (1/2)(I + r.sigma) of a preparation: always Hermitian with
    unit trace, positive semidefinite exactly when ||r|| <= 1. The diagonal
    (1 +- z)/2 keeps its unit sum in doubles only while 1 + |z| is exact,
    so a z component of 2^53 or more is rejected."""
    r = as_bloch_vectors(r)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    message = "Bloch vector z component must be below 2^53 for a unit-trace operator, got {:.6g}"
    require(np.abs(z) < 2.0**53, message, z)
    # The four entries written directly, one ufunc call per part over the
    # whole stack: the bits, signed zeros included, of the complex sum
    # (1/2)(I + x X + y Y + z Z) taken term by term in that order.
    m = np.zeros(r.shape[:-1] + (2, 2), dtype=complex)
    parts = m.view(float)  # per row (re, im, re, im) of two entries
    parts[..., 0, 0] = (1.0 + z) * 0.5
    parts[..., 1, 2] = (1.0 - z) * 0.5
    x = x + 0.0  # -0 becomes +0, as in the sum
    parts[..., 0, 2] = parts[..., 1, 0] = x * 0.5
    zero = x * 0.0
    parts[..., 0, 3] = zero + (0.0 - y) * 0.5
    parts[..., 1, 1] = zero + (y + 0.0) * 0.5
    m.setflags(write=False)  # built here, so QuasiState takes it without a copy
    return QuasiState(m)


def from_operator(state: QuasiState | np.ndarray) -> np.ndarray:
    """Bloch vector r_i = Tr(state . sigma_i) of a dim-2 preparation, or of each of a stack."""
    m = state.matrix if isinstance(state, QuasiState) else np.asarray(state, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return np.stack([np.trace(m @ s, axis1=-2, axis2=-1).real for s in PAULI], axis=-1)


def transverse_frame(r_hat) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic right-handed completion (r_hat, m, n) of a unit vector.

    m = normalize(z x r_hat) unless r_hat is within 1e-6 of the z axis, in
    which case m = normalize(x - (x.r_hat) r_hat), which is x on the axis
    itself; n = r_hat x m. A fixed rule keeps every construction that needs
    a transverse plane reproducible. For an (N, 3) stack of directions, the
    two (N, 3) stacks m and n.
    """
    r_hat = as_directions(r_hat)
    polar = ~(np.abs(r_hat[..., 2:]) < 1.0 - 1e-6)
    # near the axis z x r_hat is too short to normalize; the rejection of x
    # from r_hat is not, and stays orthogonal to r_hat as x would not
    x_rejected = np.array([1.0, 0.0, 0.0]) - r_hat[..., :1] * r_hat
    m = np.where(polar, x_rejected, _cross(np.array([0.0, 0.0, 1.0]), r_hat))
    m = m / vector_norms(m)[..., None]
    return m, _cross(r_hat, m)


def _cross(a, b) -> np.ndarray:
    # np.cross's products and differences, row by row, without the cost of
    # its general axis handling
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


@dataclass(frozen=True)
class PredictabilityCircle(Stacked):
    """Unit directions along which a preparation of norm > 1 is certain.

    They form the circle {n : r_hat . n = 1/r} on the unit sphere, centred
    at (1/r) r_hat with radius sqrt(1 - 1/r^2) in the plane normal to r_hat.
    """

    center: np.ndarray
    radius: float
    plane_normal: np.ndarray

    def sample(self, n_points: int = 64) -> np.ndarray:
        """Unit directions on the circle at a deterministic angle grid: an
        (n_points, 3) array, or (N, n_points, 3) for a stack of N circles."""
        m, n = transverse_frame(self.plane_normal)
        thetas = np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False)
        return np.asarray(self.center)[..., None, :] + np.asarray(self.radius)[..., None, None] * (
            np.cos(thetas)[:, None] * m[..., None, :] + np.sin(thetas)[:, None] * n[..., None, :]
        )


def predictability_circle(r) -> PredictabilityCircle | None:
    """Locus of measurement directions with outcome probability exactly 1.

    Norm > 1 gives a full circle of non-colinear certain directions; norm
    exactly 1 degenerates to the single point r_hat; norm < 1 gives none
    (1/r > 1 is unreachable by unit vectors). For an (N, 3) stack, the
    stack of circles; a row of norm below 1 has no circle and raises.
    """
    rs = as_bloch_vectors(r)
    check = pc_check(rs)
    norm = np.asarray(check.norm)
    reaches = norm >= 1.0 - ATOL
    if rs.ndim == 1 and not reaches:
        return None
    require(reaches, "no certain direction for norm {:.15g} < 1", norm)
    # each row's norm and verdict as a column against the row's components
    norm, full = norm[..., None], ~np.asarray(check.satisfied)[..., None]
    r_hat = rs / norm
    circles = PredictabilityCircle(
        center=np.where(full, r_hat / norm, r_hat),
        radius=np.where(full, np.sqrt(np.maximum(1.0 - 1.0 / norm**2, 0.0)), 0.0)[..., 0],
        plane_normal=r_hat,
    )
    return as_number(circles)


def along_z(norms) -> np.ndarray:
    """The Bloch vector (0, 0, r) of a norm r; for an array of norms, one
    vector per norm, stacked along a last axis of 3."""
    r = np.asarray(norms, dtype=float)
    return np.stack((np.zeros_like(r), np.zeros_like(r), r), axis=-1)


def scale_directions(normals: np.ndarray, norms) -> np.ndarray:
    """The vector of norm ``norms`` along the direction of three standard
    normal draws, which is uniform on the sphere; for an (N, 3) stack of
    draws, one vector per row, with one norm for all rows or one per row.
    The draws are overwritten: each row is divided by its length and then
    multiplied by its norm, the arithmetic of ``norm * (v / |v|)`` on the
    same normals v, bit for bit."""
    normals /= vector_norms(normals)[..., None]
    normals *= np.asarray(norms)[..., None]
    return normals


def random_bloch_vector(rng: np.random.Generator, min_norm, max_norm) -> np.ndarray:
    """Random vector with uniform direction and norm uniform in
    [min_norm, max_norm). For ranges of any (broadcast) shape, a stack of
    that shape whose vector at each index has its norm in that range. Every
    range must be finite with 0 <= min_norm <= max_norm.

    The generator makes two calls, whatever the number of ranges: one
    uniform draw u per range, then three standard normals v per range, each
    in row-major order. Each vector is ``min_norm + (max_norm - min_norm) *
    u`` (the bits of ``rng.uniform(min_norm, max_norm)``) times ``v / |v|``.
    One range makes the stream of one ``rng.random()`` and then three
    normals.
    """
    lows, highs = np.broadcast_arrays(np.asarray(min_norm, dtype=float), np.asarray(max_norm, dtype=float))
    ok = np.isfinite(lows) & np.isfinite(highs) & (0.0 <= lows) & (lows <= highs)
    require(ok, "norm range must be finite with 0 <= min_norm <= max_norm, got [{}, {})", lows, highs)
    draws = rng.random(lows.shape)
    return scale_directions(rng.standard_normal(lows.shape + (3,)), lows + (highs - lows) * draws)
