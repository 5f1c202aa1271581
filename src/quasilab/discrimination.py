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

from .bloch import as_bloch_vectors, pc_check, to_operator, transverse_frame, vector_norms
from .operators import ATOL, I4, QuasiState, Stacked, as_number, expectation, kron, matrix_max, require
from .nonlocal_box import observable


def overlap(r, rp) -> float:
    """Trace pairing of two preparations: Tr(rho rho') = (1 + r.r')/2."""
    return as_number(0.5 * (1.0 + np.vecdot(as_bloch_vectors(r), as_bloch_vectors(rp))))


def clonability_check(r, rp) -> bool:
    """True iff the pair passes the joint-cloning fixed point: a unitary
    copying both preparations forces Tr(rho rho')^2 = Tr(rho rho'), i.e.
    the trace pairing is exactly 0 or 1, i.e. r.r' = -1 or +1."""
    return as_number(np.abs(np.abs(np.vecdot(as_bloch_vectors(r), as_bloch_vectors(rp))) - 1.0) <= ATOL)


def _violating_norms(rs: np.ndarray) -> np.ndarray:
    """The norms of a resource or a stack of them, each required to exceed
    1 (by pc_check's verdict), as an array with a trailing axis of one,
    which broadcasts against the components."""
    check = pc_check(rs)
    message = "resource norm must exceed 1 by more than {:g}, got {:.15g}"
    require(np.logical_not(check.satisfied), message, ATOL, check.norm)
    return np.asarray(check.norm)[..., None]


@dataclass(frozen=True)
class HyperplanePair(Stacked):
    """Quantum states r+ and r- with r.r+ = +1 and r.r- = -1 for a resource r.

    Both share the transverse offset (y, z) in the right-handed frame
    (r_hat, m, n), so their overlap (1 + y^2 + z^2 - 1/r^2)/2 is strictly
    positive whenever the resource has norm > 1: they are non-orthogonal.
    A pair, or a stack of N pairs (one per row), is checked once, when it
    is built (by ``hyperplane_pair`` or by hand). It holds these three
    fields alone: ``detection_probabilities`` builds what measuring it needs.
    """

    resource: np.ndarray
    r_plus: np.ndarray
    r_minus: np.ndarray

    def __post_init__(self):
        r = self.resource
        plus, minus = np.vecdot(r, self.r_plus), np.vecdot(r, self.r_minus)
        ok = (np.abs(plus - 1.0) <= ATOL) & (np.abs(minus + 1.0) <= ATOL)
        message = "pair does not satisfy r.r+- = +-1 within {:g} at |r| = {:.6g}: r.r+ = {:.15g}, r.r- = {:.15g}"
        require(ok, message, ATOL, vector_norms(r), plus, minus)
        _violating_norms(r)

    def member(self, labels) -> np.ndarray:
        """r+ where the label is +1 and r- where it is -1, the labels
        broadcast against the pairs' leading axes."""
        return np.where(np.asarray(labels)[..., None] == +1, self.r_plus, self.r_minus)


def hyperplane_pair(r, y: float, z: float) -> HyperplanePair:
    """States +-(1/r) r_hat + y m + z n on the two certainty planes.

    Requires ||r|| > 1 (otherwise the planes miss the ball interior) and
    1/r^2 + y^2 + z^2 <= 1 so both outputs are genuine quantum states. For
    an (N, 3) stack of resources and (N,) offsets, the stack of N pairs.
    """
    rs = as_bloch_vectors(r)
    norm = _violating_norms(rs)
    ys, zs = np.asarray(y, dtype=float)[..., None], np.asarray(z, dtype=float)[..., None]
    require(np.isfinite(ys) & np.isfinite(zs), "transverse components must be finite")
    # a y or z beyond about 1e154 squares to inf, which the bound rejects
    with np.errstate(over="ignore"):
        reach = 1.0 / norm**2 + ys * ys + zs * zs
    require(reach <= 1.0 + ATOL, "transverse components too large: 1/r^2 + y^2 + z^2 = {:.15g} > 1", reach)
    r_hat = rs / norm
    m, n = transverse_frame(r_hat)
    offset = ys * m + zs * n
    return HyperplanePair(resource=rs, r_plus=r_hat / norm + offset, r_minus=-r_hat / norm + offset)


@dataclass(frozen=True)
class DiscriminationPovm(Stacked):
    """Two-outcome measurement {p_plus, p_minus}: complementary rank-2
    projectors (1/2)[I(x)I +- (sigma.r_hat)(x)(sigma.r_hat)] that detect
    perfect correlation or anti-correlation along the resource axis."""

    p_plus: np.ndarray
    p_minus: np.ndarray


def discrimination_povm(r) -> DiscriminationPovm:
    """Measurement whose outcomes correlate one-to-one with the two
    certainty planes of the resource ``r`` (requires ||r|| > 1)."""
    rs = as_bloch_vectors(r)
    sigma = observable(rs / _violating_norms(rs))
    corr = kron(sigma, sigma)
    return DiscriminationPovm(p_plus=0.5 * (I4 + corr), p_minus=0.5 * (I4 - corr))


def _is_label(labels: np.ndarray) -> np.ndarray:
    return (labels == +1) | (labels == -1)


def detection_probabilities(pair: HyperplanePair, which: int) -> tuple[float, float]:
    """The pair's discrimination measurement on resource (x) hidden state,
    where ``which`` (+1 or -1) selects the hidden state: its outcome
    probabilities (q_plus, q_minus). Hidden labels broadcast against the
    pairs' leading axes, as ``discrimination_experiment`` uses them.
    """
    which = np.asarray(which)
    require(_is_label(which), "hidden label must be +1 or -1, got {}", which)
    povm, hidden = discrimination_povm(pair.resource), to_operator(pair.member(which)).matrix
    joint = kron(to_operator(pair.resource).matrix, hidden)
    return expectation(povm.p_plus, joint), expectation(povm.p_minus, joint)


def discriminate(pair: HyperplanePair, which: int) -> tuple[int, float, float]:
    """Identify the hidden member of a certainty-plane pair with one
    discrimination measurement.

    Returns the label of the outcome the measurement makes likelier and
    the outcome probabilities (q_plus, q_minus) it gave. On a working
    instance the likelier outcome has probability 1, so the answer is
    certain. Hidden labels broadcast as in ``detection_probabilities``,
    and the results have the broadcast shape.
    """
    q_plus, q_minus = detection_probabilities(pair, which)
    return as_number((np.where(q_plus >= q_minus, +1, -1), q_plus, q_minus))


def discrimination_experiment(pair: HyperplanePair) -> tuple:
    """Both hidden members of a pair measured, along one new leading axis
    where row 0 hides r+ and row 1 hides r-: the hidden labels, the labels
    and (q_plus, q_minus) of ``discriminate``, and each measurement's
    detection deviation max(|q_hit - 1|, |q_miss|). For a stack of N
    pairs, each part is (2, N)."""
    which = np.array([+1, -1]).reshape((2,) + (1,) * (pair.resource.ndim - 1))
    labels, q_plus, q_minus = discriminate(pair, which)
    hit = which == +1
    q_hit, q_miss = np.where(hit, q_plus, q_minus), np.where(hit, q_minus, q_plus)
    deviation = np.maximum(np.abs(q_hit - 1.0), np.abs(q_miss))
    return np.broadcast_to(which, deviation.shape), labels, q_plus, q_minus, deviation


def clone_protocol(pair: HyperplanePair, label: int, which: int) -> tuple[QuasiState, float]:
    """Duplicate the state that discrimination identified as ``label``.

    The deterministic outcome leaves resource (x) hidden state untouched,
    so once the label is known the identified state is simply prepared
    afresh. Returns the dim-4 output rho_label (x) rho_label and its
    max-entry deviation from rho_which (x) rho_which, which is exactly 0
    when the label is right: the two are then the same state. Labels and
    hidden labels broadcast against the pairs' leading axes, as in
    ``discriminate``; deviations are compared only where the label is wrong.
    """
    label, which = np.asarray(label), np.asarray(which)
    require(_is_label(label) & _is_label(which), "labels must be +1 or -1, got {} and {}", label, which)
    single = to_operator(pair.member(label)).matrix
    out = kron(single, single)
    dev = np.zeros(out.shape[:-2])
    if np.any(label != which):
        wrong = np.broadcast_to(label != which, dev.shape)
        actual = to_operator(pair.member(which)[wrong]).matrix
        dev[wrong] = matrix_max(np.abs(out[wrong] - kron(actual, actual)))
    return QuasiState(out), as_number(dev)
