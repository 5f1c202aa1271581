"""d-dimensional preparations beyond the quantum state space.

A unit-trace Hermitian operator makes some rank-1 projective outcome
certain iff its largest eigenvalue exceeds 1. Such an operator, written as
(1+epsilon) on a leading eigenvector plus a tail spectrum summing to
-epsilon, admits whole families of probe vectors whose detection
probability is pinned at exactly 1 or exactly 0 even though the probes
overlap; a projector onto doubled eigenvectors then separates the two
families with certainty, extending the qubit discrimination protocol to
any dimension.

That projector is diagonal in the doubled eigenbasis, so the detection
probability needs the state's diagonal in its own eigenbasis, computed
once when the state is built (O(d^3)), and one change of the probe into
the eigenbasis: O(d^2) time and memory per call. The dense (d^2)x(d^2)
projector is built only where a report judges it against its oracle.

Every operation follows the package's shape rule: it takes one instance,
or a stack of instances of one dimension d along leading axes (N
epsilons, (N, d-1) tails, (N, d, d) bases and (N, d) phases), and
broadcasts over the leading axes. A stack is validated row by row, and a
bad row raises the error it raises on its own. Every basis, the default
identity included, passes one unitarity check, with the adjoint that then
builds the state's matrix, read-only so that the state keeps it uncopied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import (
    ATOL,
    PSD_ATOL,
    QuasiState,
    Stacked,
    as_number,
    hermitian_spectrum,
    matrix_max,
    real_pairing,
    require,
)

CERTAIN, NULL = 1, 0


def violates_pc(m) -> bool:
    """True iff the preparation makes two incompatible outcomes certain,
    which happens exactly when its top eigenvalue exceeds 1 (by more than
    PSD_ATOL, the bound of ``is_positive``); one verdict per operator."""
    matrix = m.matrix if isinstance(m, QuasiState) else np.asarray(m, dtype=complex)
    return as_number(hermitian_spectrum(matrix)[..., -1] - 1.0 > PSD_ATOL)


def _as_epsilons(epsilon):
    """One epsilon as a numpy float, or an (N,) array of them, each checked
    to be positive and finite."""
    epsilon = np.asarray(epsilon, dtype=float)[()]
    require((epsilon > 0) & (epsilon < np.inf), "epsilon must be positive and finite, got {!r}", epsilon)
    return epsilon


def _spectrum(epsilon, lambdas: np.ndarray) -> np.ndarray:
    return np.concatenate(((1.0 + np.asarray(epsilon))[..., None], lambdas), axis=-1)


@dataclass(frozen=True)
class ViolatingState(Stacked):
    """Preparation with leading eigenvalue 1 + epsilon > 1.

    ``lambdas`` holds the d-1 remaining eigenvalues (summing to -epsilon,
    so the trace is 1) and ``basis`` the orthonormal eigenvectors as
    columns, the leading one first. ``diag`` holds <psi_j|state|psi_j>,
    the state's diagonal in that basis, which detection reads; it is
    computed from ``state`` and ``basis`` whenever the state is made,
    ``dataclasses.replace`` included.
    """

    epsilon: float
    lambdas: np.ndarray
    basis: np.ndarray
    state: QuasiState
    diag: np.ndarray = field(init=False)

    def __post_init__(self):
        basis = self.basis
        object.__setattr__(self, "diag", (basis.conj() * (self.state.matrix @ basis)).sum(axis=-2))

    @property
    def dim(self) -> int:
        return self.basis.shape[-1]

    @property
    def spectrum(self) -> np.ndarray:
        """All d eigenvalues, leading one first."""
        return _spectrum(self.epsilon, self.lambdas)


def build_violating_state(dim: int, epsilon: float, lambdas=None, basis=None) -> ViolatingState:
    """Assemble (1+eps)|psi0><psi0| + sum_k lambda_k |psi_k><psi_k|.

    The tail defaults to the uniform split -epsilon/(d-1). A custom tail
    must have length d-1, be finite, sum to -epsilon, and stay below
    1+epsilon so the leading eigenvalue is the stated one. ``basis``
    (columns = psi_n) defaults to the computational basis and must be
    unitary. For an (N,) array of epsilons, with (N, d-1) tails and
    (N, d, d) bases if given, the N states of dimension d.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    epsilon = _as_epsilons(epsilon)
    batch = epsilon.shape
    if lambdas is None:
        lambdas = np.full(batch + (dim - 1,), (-epsilon / (dim - 1))[..., None])
    else:
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != batch + (dim - 1,):
            raise ValueError(f"tail spectrum needs {dim - 1} entries, got {lambdas.shape}")
        require(np.isfinite(lambdas).all(axis=-1), "tail spectrum must be finite, got {}", lambdas)
        # finite entries may sum to inf, which the next check rejects
        with np.errstate(over="ignore"):
            sums = lambdas.sum(axis=-1)
        require(np.abs(sums + epsilon) <= ATOL, "tail spectrum must sum to -epsilon, got {:.15g}", sums)
        leading = (lambdas <= (1.0 + epsilon + ATOL)[..., None]).all(axis=-1)
        require(leading, "tail eigenvalue exceeds the leading eigenvalue 1+epsilon")
    identity = np.eye(dim)
    basis = np.asarray(np.tile(identity, batch + (1, 1)) if basis is None else basis, dtype=complex)
    # a basis of the wrong shape fails as one verdict, before any product
    require(basis.shape == batch + (dim, dim), "basis columns must be orthonormal")
    adjoint = basis.conj().swapaxes(-1, -2)
    require((np.abs(adjoint @ basis - identity) <= ATOL).all(axis=(-2, -1)), "basis columns must be orthonormal")
    matrix = (basis * _spectrum(epsilon, lambdas)[..., None, :]) @ adjoint
    matrix.setflags(write=False)  # QuasiState keeps it without a copy
    return ViolatingState(epsilon=as_number(epsilon), lambdas=lambdas, basis=basis, state=QuasiState(matrix))


def probe_magnitudes(dim: int, epsilon: float, target: int) -> np.ndarray:
    """Squared magnitudes of a probe vector with detection probability
    pinned at ``target`` (1 or 0) against any violating state of the given
    epsilon: weight a0 on the leading eigenvector and (1-a0)/(d-1) on each
    remaining one, where a0 = (eps+d-1)/(d*eps+d-1) for target 1 and
    eps/(d*eps+d-1) for target 0. Only the tail *sum* enters the pinning
    condition, so these weights work for every admissible tail spectrum.
    For an (N,) array of epsilons, the (N, d) magnitudes.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    epsilon = _as_epsilons(epsilon)
    if target == CERTAIN:
        a0 = (epsilon + dim - 1) / (dim * epsilon + dim - 1)
    elif target == NULL:
        a0 = epsilon / (dim * epsilon + dim - 1)
    else:
        raise ValueError(f"target must be 0 or 1, got {target}")
    mags = np.empty(epsilon.shape + (dim,))
    mags[..., 0] = a0
    mags[..., 1:] = ((1.0 - a0) / (dim - 1))[..., None]
    return mags


@dataclass(frozen=True)
class ProbeState(Stacked):
    """Unit vector sum_n alpha_n |psi_n> with fixed squared magnitudes and
    free phases; its detection probability against the parent violating
    state is exactly ``target`` regardless of the phases. ``pinning_dev``
    is the measured |<probe|state|probe> - target|."""

    magnitudes_sq: np.ndarray
    vector: np.ndarray
    target: int
    pinning_dev: float


def build_probe_state(vs: ViolatingState, target: int, phases=None) -> ProbeState:
    """Probe vector in the eigenbasis of ``vs`` (zero phases by default),
    carrying the measured deviation of the violating state's quadratic form
    on it from the target. For a stack of states, with (N, d) phases if
    given, one probe per state. Phases may have leading axes beyond the
    states' own, (..., N, d): one probe per phase row, each of the state
    its row sits on, and the magnitudes broadcast to every row."""
    mags = probe_magnitudes(vs.dim, vs.epsilon, target)
    if phases is None:
        phases = np.zeros(mags.shape)
    else:
        phases = np.asarray(phases, dtype=float)
        if phases.shape[max(phases.ndim - mags.ndim, 0) :] != mags.shape:
            raise ValueError(f"need {vs.dim} finite phases, got {phases.tolist()}")
        require(np.isfinite(phases).all(axis=-1), "need {} finite phases, got {}", vs.dim, phases)
    amps = np.sqrt(mags) * np.exp(1j * phases)
    vector = (vs.basis @ amps[..., None])[..., 0]
    form = (vector.conj()[..., None, :] @ vs.state.matrix @ vector[..., None])[..., 0, 0]
    dev = np.abs(form.real - target)
    targets = np.full(dev.shape, int(target))
    if mags.shape != amps.shape:  # phases with leading axes of their own
        mags = np.broadcast_to(mags, amps.shape)
    return ProbeState(magnitudes_sq=mags, vector=vector, target=as_number(targets), pinning_dev=as_number(dev))


def entangled_projector(vs: ViolatingState) -> tuple[np.ndarray, float]:
    """Rank-d projector P1 onto the doubled eigenvectors and its max-entry
    deviation from its oracle (for a stack of states, N projectors and N
    deviations).

    P1 is assembled from the d Fourier-phased maximally entangled vectors
    (1/sqrt(d)) sum_j w^(jk) |psi_j psi_j>; its oracle is the direct
    diagonal sum sum_j |psi_j psi_j><psi_j psi_j|.
    """
    basis, d = vs.basis, vs.dim
    # row j is |psi_j psi_j>, the Kronecker product of column j with itself
    columns = basis.swapaxes(-1, -2)
    doubled = (columns[..., :, None] * columns[..., None, :]).reshape(basis.shape[:-2] + (d, d * d))
    # exp(2 pi i (jk mod d) / d): reducing the exponent first keeps F unitary
    # to about 4e-16 at any d; omega ** (jk) is off by 1e-11 at d = 512
    k = np.arange(d)
    fourier = np.exp(2j * np.pi * (np.outer(k, k) % d) / d)
    phased = fourier @ doubled / np.sqrt(d)
    p1 = phased.swapaxes(-1, -2) @ phased.conj()
    oracle = doubled.swapaxes(-1, -2) @ doubled.conj()
    return p1, as_number(matrix_max(np.abs(p1 - oracle)))


def detection_probability(vs: ViolatingState, probe: ProbeState) -> float:
    """q1 = Tr[P1 (state (x) probe)] for the doubled-basis projector (for a
    stack of states and their probes, one q1 per row).

    P1 = sum_j |psi_j psi_j><psi_j psi_j| (the oracle ``entangled_projector``
    is judged against), so q1 = sum_j <psi_j|state|psi_j> |<psi_j|probe>|^2:
    the cached diagonal and one basis change, without forming P1 or the
    joint operator. An imaginary residue above SPECTRAL_ATOL raises, as in
    ``expectation``.
    """
    amps = (vs.basis.conj().swapaxes(-1, -2) @ probe.vector[..., None])[..., 0]
    return real_pairing((vs.diag * np.abs(amps) ** 2).sum(axis=-1))


def probe_experiment(vs: ViolatingState, phases=None) -> tuple:
    """The certain and the null probe of ``vs`` (``phases`` as in
    ``build_probe_state``), then, along one new leading axis where row 0 is
    the certain probe and row 1 the null one, each probe's q1, its
    ``pinning_dev`` and its |q1 - target|: (2, N) for a stack of N states,
    and (2, ..., N) for phases with leading axes of their own."""
    probes = [build_probe_state(vs, target, phases=phases) for target in (CERTAIN, NULL)]
    q1 = np.stack([detection_probability(vs, probe) for probe in probes])
    pinning = np.stack([probe.pinning_dev for probe in probes])
    return (*probes, q1, pinning, np.abs(q1 - np.stack([probe.target for probe in probes])))


def discriminate_highdim(vs: ViolatingState, which: int, probe: ProbeState) -> int:
    """Identify which probe family the hidden vector ``probe``, built for
    ``which``, belongs to: the label of the outcome the doubled-basis
    projector makes likelier. It fires with probability exactly 1 on the
    certain family and exactly 0 on the null family, so the answer is
    certain on a working instance. For stacks, one label per row.
    """
    if which not in (CERTAIN, NULL):
        raise ValueError(f"hidden label must be 0 or 1, got {which}")
    require(probe.target == which, "probe target does not match the hidden label")
    return as_number(np.where(detection_probability(vs, probe) >= 0.5, CERTAIN, NULL))
