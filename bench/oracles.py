"""Closed forms from the paper, computed without quasilab.

The benchmark checks the program's outputs against these. They use numpy
only and never call ``np.kron``, ``np.linalg.eigh`` or
``np.linalg.eigvalsh``, so a traced run counts none of their work as the
program's.
"""

from __future__ import annotations

import numpy as np

SQRT2 = float(np.sqrt(2.0))

I2 = np.eye(2, dtype=complex)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

TSIRELSON = (
    np.array([1.0, 1.0, 0.0]) / SQRT2,
    np.array([1.0, -1.0, 0.0]) / SQRT2,
    np.array([1.0, 0.0, 0.0]),
    np.array([0.0, -1.0, 0.0]),
)


def pair_product(a, b) -> np.ndarray:
    """Tensor product of two square matrices, written out by index."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n, m = a.shape[0], b.shape[0]
    return np.einsum("ij,kl->ikjl", a, b).reshape(n * m, n * m)


def bloch_operator(r) -> np.ndarray:
    """(I + r.sigma)/2."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (I2 + r[0] * PAULI[0] + r[1] * PAULI[1] + r[2] * PAULI[2])


def clone_target(r) -> np.ndarray:
    """rho (x) rho for rho = (I + r.sigma)/2."""
    rho = bloch_operator(r)
    return pair_product(rho, rho)


def purity(r) -> float:
    """Tr(rho^2) = (1 + |r|^2)/2."""
    r = np.asarray(r, dtype=float)
    return 0.5 * (1.0 + float(r @ r))


def bell_diagonal_box(r: float) -> np.ndarray:
    """(1/2)[(1+r)|phi+><phi+| + (1-r)|phi-><phi-|] from the Bell vectors."""
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / SQRT2
    phi_minus = np.array([1, 0, 0, -1], dtype=complex) / SQRT2
    return 0.5 * (
        (1.0 + r) * np.outer(phi_plus, phi_plus.conj())
        + (1.0 - r) * np.outer(phi_minus, phi_minus.conj())
    )


def box_eigenvalues(r: float) -> np.ndarray:
    """Spectrum of the Bell-diagonal box, descending: (1+r)/2, (1-r)/2, 0, 0."""
    return np.sort(np.array([(1.0 + r) / 2.0, (1.0 - r) / 2.0, 0.0, 0.0]))[::-1]


def chsh_settings(r: float, auto: bool = True) -> tuple[np.ndarray, ...]:
    """(a1, a2, b1, b2): Tsirelson's settings, with the receiver axes tilted
    out of the plane past r = sqrt(2) when ``auto`` so every correlator is
    pinned at +-1."""
    if not auto or r <= SQRT2:
        return TSIRELSON
    tilt = float(np.sqrt(r * r - 2.0)) / r
    return (
        TSIRELSON[0],
        TSIRELSON[1],
        np.array([SQRT2 / r, 0.0, tilt]),
        np.array([0.0, -SQRT2 / r, tilt]),
    )


def correlator(r: float, a, b) -> float:
    """<(a.sigma)(x)(b.sigma)> on the box, whose correlation tensor is
    diag(r, -r, 1) and whose marginals vanish."""
    return r * a[0] * b[0] - r * a[1] * b[1] + a[2] * b[2]


def joint_table(r: float, a, b) -> np.ndarray:
    """p(x, y) = (1 + x y E)/4, with x, y = +1 at index 0."""
    e = correlator(r, a, b)
    return np.array([[1.0 + e, 1.0 - e], [1.0 - e, 1.0 + e]]) / 4.0


def chsh(r: float, settings) -> float:
    """E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2)."""
    a1, a2, b1, b2 = settings
    return (
        correlator(r, a1, b1) + correlator(r, a1, b2) + correlator(r, a2, b1) - correlator(r, a2, b2)
    )


def expected_chsh(r: float, auto: bool = True) -> float:
    """2*sqrt(2)*r, saturating at the algebraic maximum 4 past sqrt(2) with
    auto settings."""
    return 4.0 if auto and r > SQRT2 else 2.0 * SQRT2 * r


def plane_overlap(norm: float, y: float, z: float) -> float:
    """Tr(rho+ rho-) = (1 + r+.r-)/2 = (1 + y^2 + z^2 - 1/r^2)/2."""
    return 0.5 * (1.0 + y * y + z * z - 1.0 / norm**2)


def probe_weights(dim: int, epsilon: float, target: int) -> np.ndarray:
    """Squared probe magnitudes pinning the detection probability at
    ``target``: a0 = (eps+d-1)/(d*eps+d-1) for 1, eps/(d*eps+d-1) for 0,
    and the rest spread evenly over the tail."""
    denom = dim * epsilon + dim - 1
    a0 = (epsilon + dim - 1) / denom if target == 1 else epsilon / denom
    return np.concatenate(([a0], np.full(dim - 1, (1.0 - a0) / (dim - 1))))


def q1_doubled_basis(basis, rho, phi) -> float:
    """q1 = sum_j <psi_j|rho|psi_j> |<psi_j|phi>|^2: the detection
    probability of the doubled-basis projector, as a diagonal sum."""
    basis = np.asarray(basis, dtype=complex)
    diag = np.einsum("ij,ik,kj->j", basis.conj(), np.asarray(rho, dtype=complex), basis).real
    amps = basis.conj().T @ np.asarray(phi, dtype=complex)
    return float(diag @ (np.abs(amps) ** 2))
