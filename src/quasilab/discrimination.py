"""Perfect discrimination and cloning of non-orthogonal quantum states,
powered by a preparation whose Bloch norm exceeds 1.

Two preparations are jointly clonable only when their Bloch vectors have
inner product exactly +-1. For a resource vector r with ||r|| > 1 those two
conditions carve a pair of planes through the interior of the Bloch ball,
so genuinely non-orthogonal quantum states sit on them; a fixed two-outcome
measurement on resource (x) unknown then identifies the state with
certainty and lets it be re-prepared at will.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import as_bloch_vector, to_operator, transverse_frame
from .operators import ATOL, I2, SPECTRAL_ATOL, QuasiState, expectation, kron
from .nonlocal_box import observable


def overlap(r, rp) -> float:
    """Trace pairing of two preparations: Tr(rho rho') = (1 + r.r')/2."""
    return 0.5 * (1.0 + float(np.dot(as_bloch_vector(r), as_bloch_vector(rp))))


def clonability_check(r, rp) -> bool:
    """True iff the pair passes the joint-cloning fixed point: a unitary
    copying both preparations forces Tr(rho rho')^2 = Tr(rho rho'), i.e.
    the trace pairing is exactly 0 or 1, i.e. r.r' = -1 or +1."""
    dot = float(np.dot(as_bloch_vector(r), as_bloch_vector(rp)))
    return abs(abs(dot) - 1.0) <= ATOL


@dataclass(frozen=True)
class HyperplanePair:
    """Quantum states r+ and r- with r.r+ = +1 and r.r- = -1.

    Both share the transverse offset (y, z) in the right-handed frame
    (r_hat, m, n), so their overlap (1 + y^2 + z^2 - 1/r^2)/2 is strictly
    positive whenever the resource has norm > 1: they are non-orthogonal.
    """

    resource: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray
    y: float
    z: float
    frame: tuple[np.ndarray, np.ndarray, np.ndarray]


def hyperplane_pair(r, y: float, z: float) -> HyperplanePair:
    """States +-(1/r) r_hat + y m + z n on the two certainty planes.

    Requires ||r|| > 1 (otherwise the planes miss the ball interior) and
    1/r^2 + y^2 + z^2 <= 1 so both outputs are genuine quantum states.
    """
    r = as_bloch_vector(r)
    norm = float(np.linalg.norm(r))
    if norm <= 1.0 + ATOL:
        raise ValueError(f"resource norm must exceed 1, got {norm:.15g}")
    if 1.0 / norm**2 + y * y + z * z > 1.0 + ATOL:
        raise ValueError(
            f"transverse components too large: 1/r^2 + y^2 + z^2 = {1.0 / norm**2 + y * y + z * z:.15g} > 1"
        )
    r_hat = r / norm
    m, n = transverse_frame(r_hat)
    offset = y * m + z * n
    return HyperplanePair(
        resource=r,
        r_plus=r_hat / norm + offset,
        r_minus=-r_hat / norm + offset,
        y=float(y),
        z=float(z),
        frame=(r_hat, m, n),
    )


@dataclass(frozen=True)
class DiscriminationPovm:
    """Two-outcome measurement {p_plus, p_minus}: complementary rank-2
    projectors (1/2)[I(x)I +- (sigma.r_hat)(x)(sigma.r_hat)] that detect
    perfect correlation or anti-correlation along the resource axis."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    axis: np.ndarray


def discrimination_povm(r) -> DiscriminationPovm:
    """Measurement whose outcomes correlate one-to-one with the two
    certainty planes of the resource ``r`` (requires ||r|| > 1)."""
    r = as_bloch_vector(r)
    norm = float(np.linalg.norm(r))
    if norm <= 1.0 + ATOL:
        raise ValueError(f"resource norm must exceed 1, got {norm:.15g}")
    axis = r / norm
    corr = kron(observable(axis), observable(axis))
    ident = kron(I2, I2)
    return DiscriminationPovm(
        p_plus=0.5 * (ident + corr),
        p_minus=0.5 * (ident - corr),
        axis=axis,
    )


def _validate_pair(r: np.ndarray, pair: HyperplanePair) -> None:
    if not np.allclose(pair.resource, r, atol=ATOL):
        raise ValueError("pair was built for a different resource")
    if abs(np.dot(r, pair.r_plus) - 1.0) > ATOL or abs(np.dot(r, pair.r_minus) + 1.0) > ATOL:
        raise ValueError("pair does not satisfy r.r+- = +-1")


def detection_probabilities(r, pair: HyperplanePair, which: int) -> tuple[float, float]:
    """Outcome probabilities (q_plus, q_minus) of the discrimination
    measurement on resource (x) hidden state, where ``which`` (+1 or -1)
    selects the hidden state."""
    r = as_bloch_vector(r)
    _validate_pair(r, pair)
    if which not in (+1, -1):
        raise ValueError(f"hidden label must be +1 or -1, got {which}")
    povm = discrimination_povm(r)
    hidden = pair.r_plus if which == +1 else pair.r_minus
    joint = kron(to_operator(r).matrix, to_operator(hidden).matrix)
    return expectation(povm.p_plus, joint), expectation(povm.p_minus, joint)


def discriminate(r, pair: HyperplanePair, which: int) -> int:
    """Identify the hidden member of a certainty-plane pair with unit
    probability. The outcome matching the hidden label must carry
    probability 1 and the other 0; anything else means the construction
    is broken and raises."""
    q_plus, q_minus = detection_probabilities(r, pair, which)
    q_hit, q_miss = (q_plus, q_minus) if which == +1 else (q_minus, q_plus)
    if abs(q_hit - 1.0) > SPECTRAL_ATOL or abs(q_miss) > SPECTRAL_ATOL:
        raise AssertionError(f"discrimination not deterministic: q_hit={q_hit!r}, q_miss={q_miss!r}")
    return which


def clone_protocol(r, pair: HyperplanePair, which: int) -> tuple[int, QuasiState]:
    """Discriminate, then duplicate.

    The deterministic outcome leaves resource (x) hidden state untouched,
    so after the label is known the identified state is simply prepared
    afresh; the returned dim-4 operator is rho_which (x) rho_which.
    """
    label = discriminate(r, pair, which)
    target = pair.r_plus if label == +1 else pair.r_minus
    single = to_operator(target).matrix
    return label, QuasiState(kron(single, single))
