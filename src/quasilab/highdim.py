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
probability needs only one change into the eigenbasis: O(d^3) time and
O(d^2) memory. The dense (d^2)x(d^2) projector is built only where a
report judges it against its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ATOL, PSD_ATOL, QuasiState, real_pairing

CERTAIN, NULL = 1, 0


def violates_pc(m) -> bool:
    """True iff the preparation makes two incompatible outcomes certain,
    which happens exactly when its top eigenvalue exceeds 1 (by more than
    PSD_ATOL, the eigenvalue-side bound that ``is_positive`` also uses)."""
    matrix = m.matrix if isinstance(m, QuasiState) else np.asarray(m, dtype=complex)
    return bool(np.linalg.eigvalsh(matrix)[-1] - 1.0 > PSD_ATOL)


@dataclass(frozen=True)
class ViolatingState:
    """Preparation with leading eigenvalue 1 + epsilon > 1.

    ``lambdas`` holds the d-1 remaining eigenvalues (summing to -epsilon,
    so the trace is 1) and ``basis`` the orthonormal eigenvectors as
    columns, the leading one first.
    """

    dim: int
    epsilon: float
    lambdas: np.ndarray
    basis: np.ndarray
    state: QuasiState

    @property
    def spectrum(self) -> np.ndarray:
        """All d eigenvalues, leading one first."""
        return np.concatenate(([1.0 + self.epsilon], self.lambdas))


def build_violating_state(dim: int, epsilon: float, lambdas=None, basis=None) -> ViolatingState:
    """Assemble (1+eps)|psi0><psi0| + sum_k lambda_k |psi_k><psi_k|.

    The tail defaults to the uniform split -epsilon/(d-1). A custom tail
    must have length d-1, be finite, sum to -epsilon, and stay below
    1+epsilon so the leading eigenvalue is the stated one. ``basis``
    (columns = psi_n) defaults to the computational basis and must be
    unitary.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if lambdas is None:
        lambdas = np.full(dim - 1, -epsilon / (dim - 1))
    else:
        lambdas = np.asarray(lambdas, dtype=float)
        if lambdas.shape != (dim - 1,):
            raise ValueError(f"tail spectrum needs {dim - 1} entries, got {lambdas.shape}")
        if not np.all(np.isfinite(lambdas)):
            raise ValueError(f"tail spectrum must be finite, got {lambdas.tolist()}")
        if abs(lambdas.sum() + epsilon) > ATOL:
            raise ValueError(f"tail spectrum must sum to -epsilon, got {lambdas.sum():.15g}")
        if lambdas.max() > 1.0 + epsilon + ATOL:
            raise ValueError("tail eigenvalue exceeds the leading eigenvalue 1+epsilon")
    if basis is None:
        basis = np.eye(dim, dtype=complex)
    else:
        basis = np.asarray(basis, dtype=complex)
        if basis.shape != (dim, dim) or np.max(np.abs(basis.conj().T @ basis - np.eye(dim))) > ATOL:
            raise ValueError("basis columns must be orthonormal")
    spectrum = np.concatenate(([1.0 + epsilon], lambdas))
    matrix = (basis * spectrum) @ basis.conj().T
    return ViolatingState(
        dim=dim,
        epsilon=float(epsilon),
        lambdas=lambdas,
        basis=basis,
        state=QuasiState(matrix),
    )


def probe_magnitudes(dim: int, epsilon: float, target: int) -> np.ndarray:
    """Squared magnitudes of a probe vector with detection probability
    pinned at ``target`` (1 or 0) against any violating state of the given
    epsilon: weight a0 on the leading eigenvector and (1-a0)/(d-1) on each
    remaining one, where a0 = (eps+d-1)/(d*eps+d-1) for target 1 and
    eps/(d*eps+d-1) for target 0. Only the tail *sum* enters the pinning
    condition, so these weights work for every admissible tail spectrum.
    """
    if dim < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    if target == CERTAIN:
        a0 = (epsilon + dim - 1) / (dim * epsilon + dim - 1)
    elif target == NULL:
        a0 = epsilon / (dim * epsilon + dim - 1)
    else:
        raise ValueError(f"target must be 0 or 1, got {target}")
    tail = (1.0 - a0) / (dim - 1)
    return np.concatenate(([a0], np.full(dim - 1, tail)))


@dataclass(frozen=True)
class ProbeState:
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
    on it from the target."""
    mags = probe_magnitudes(vs.dim, vs.epsilon, target)
    if phases is None:
        phases = np.zeros(vs.dim)
    else:
        phases = np.asarray(phases, dtype=float)
        if not (phases.shape == (vs.dim,) and np.isfinite(phases).all()):
            raise ValueError(f"need {vs.dim} finite phases, got {phases.tolist()}")
    amps = np.sqrt(mags) * np.exp(1j * phases)
    vector = vs.basis @ amps
    dev = abs(float(np.real(vector.conj() @ vs.state.matrix @ vector)) - target)
    return ProbeState(magnitudes_sq=mags, vector=vector, target=int(target), pinning_dev=dev)


def entangled_projector(vs: ViolatingState) -> tuple[np.ndarray, float]:
    """Rank-d projector P1 onto the doubled eigenvectors and its max-entry
    deviation from its oracle.

    P1 is assembled from the d Fourier-phased maximally entangled vectors
    (1/sqrt(d)) sum_j w^(jk) |psi_j psi_j>; its oracle is the direct
    diagonal sum sum_j |psi_j psi_j><psi_j psi_j|.
    """
    d = vs.dim
    omega = np.exp(2j * np.pi / d)
    # row j is |psi_j psi_j>, the Kronecker product of column j with itself
    doubled = np.einsum("ij,kj->jik", vs.basis, vs.basis).reshape(d, d * d)
    fourier = omega ** np.outer(np.arange(d), np.arange(d))
    phased = fourier @ doubled / np.sqrt(d)
    p1 = phased.T @ phased.conj()
    oracle = doubled.T @ doubled.conj()
    dev = float(np.max(np.abs(p1 - oracle)))
    return p1, dev


def detection_probability(vs: ViolatingState, probe: ProbeState) -> float:
    """q1 = Tr[P1 (state (x) probe)] for the doubled-basis projector.

    P1 = sum_j |psi_j psi_j><psi_j psi_j| (the oracle ``entangled_projector``
    is judged against), so q1 = sum_j <psi_j|state|psi_j> |<psi_j|probe>|^2:
    one basis change, without forming P1 or the joint operator. An
    imaginary residue above SPECTRAL_ATOL raises, as in ``expectation``.
    """
    basis = vs.basis
    diag = np.sum(basis.conj() * (vs.state.matrix @ basis), axis=0)
    amps = basis.conj().T @ probe.vector
    return real_pairing(np.sum(diag * np.abs(amps) ** 2))


def discriminate_highdim(vs: ViolatingState, which: int, probe: ProbeState | None = None) -> int:
    """Identify which probe family a hidden vector belongs to: the label
    of the outcome the doubled-basis projector makes likelier. It fires
    with probability exactly 1 on the certain family and exactly 0 on the
    null family, so on a working instance the answer is certain.
    """
    if which not in (CERTAIN, NULL):
        raise ValueError(f"hidden label must be 0 or 1, got {which}")
    if probe is None:
        probe = build_probe_state(vs, which)
    elif probe.target != which:
        raise ValueError("probe target does not match the hidden label")
    return CERTAIN if detection_probability(vs, probe) >= 0.5 else NULL
