"""Draws shared by the test modules."""

import numpy as np

from quasilab.operators import ATOL, hermitian_spectrum


def same_bits(a, b) -> bool:
    """Whether two arrays (or numbers) have one shape, one dtype and the
    same bytes: equal bit for bit, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits_but_nan_signs(a, b) -> bool:
    """``same_bits``, except that a NaN matches any NaN: one shape, one
    dtype, NaN in the same real and imaginary parts, and every other part
    the same bits, signed zeros included. numpy's loops choose the sign of
    a NaN sum apart: a contiguous, a strided and a short loop may each give
    another sign to (+NaN) + (-NaN)."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    parts_a, parts_b = (np.stack((x.real, x.imag)) if np.iscomplexobj(x) else x for x in (a, b))
    nan = np.isnan(parts_a)
    return np.array_equal(nan, np.isnan(parts_b)) and parts_a[~nan].tobytes() == parts_b[~nan].tobytes()


# How far the closed-form eigensystem of a 2x2 Hermitian matrix may lie from
# LAPACK's, in ulps of max(1, largest entry): the bound on both spectra's
# rounding in ``tests/test_operators.py::_assert_spectrum_is_lapacks``.
QUBIT_ULPS = 8


def assert_qubit_eigensystem(m, vecs):
    """``vecs``, the eigenbasis of a stack of 2x2 Hermitian matrices ``m``
    (its columns), with the eigenvalues ``hermitian_spectrum`` gives read
    descending, against LAPACK's eigh, each matrix on the scale max(1,
    largest entry): eigenvalues within QUBIT_ULPS of eigh's, each residual
    |A v - lambda v| and the deviation of V^H V from I within QUBIT_ULPS,
    and the phase rule exact: each column's first entry of magnitude
    above 1e-8 is real, with a zero imaginary part, and positive."""
    m = np.asarray(m).reshape(-1, 2, 2)
    vals, vecs = hermitian_spectrum(m)[..., ::-1], np.reshape(vecs, (-1, 2, 2))
    ulp = QUBIT_ULPS * np.finfo(float).eps
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    assert np.all(vals[:, 0] >= vals[:, 1])
    devs = {
        "eigenvalue": np.abs(vals - np.linalg.eigh(m).eigenvalues[:, ::-1]).max(axis=-1) / scale,
        "residual": np.abs(m @ vecs - vecs * vals[:, None, :]).max(axis=(-2, -1)) / scale,
        "orthonormality": np.abs(vecs.conj().swapaxes(-1, -2) @ vecs - np.eye(2)).max(axis=(-2, -1)),
    }
    for name, dev in devs.items():
        worst = np.argmax(dev)
        assert dev[worst] <= ulp, (name, dev[worst] / ulp, m[worst])
    big = np.abs(vecs) > 1e-8
    pivot = np.take_along_axis(vecs, big.argmax(axis=-2)[:, None, :], axis=-2)[:, 0, :]
    assert big.any(axis=-2).all() and np.all(pivot.imag == 0.0) and np.all(pivot.real > 0.0)


def random_direction(rng):
    """Uniform unit vector on the sphere, from three standard normal draws."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_tail(rng, dim, epsilon):
    """A random tail spectrum of a d-dimensional violating state: -epsilon
    times Dirichlet weights plus centred jitter, drawn again until its
    largest entry stays below 1 + epsilon and it sums to -epsilon; [-epsilon]
    at d = 2."""
    if dim == 2:
        return np.array([-epsilon])
    while True:
        tail = -epsilon * rng.dirichlet(np.ones(dim - 1))
        jitter = rng.normal(0.0, 0.3, size=dim - 1)
        tail = tail + jitter - jitter.mean()
        if tail.max() < 1.0 + epsilon - 1e-6 and abs(tail.sum() + epsilon) <= ATOL:
            return tail


class ScaledDraws:
    """A generator whose first ``count`` values drawn by ``method`` come out
    multiplied by ``factor``, whether they are drawn one at a time or in
    bulk; every other draw is the wrapped generator's own."""

    def __init__(self, rng, method, count, factor):
        self._rng, self._method, self._left, self._factor = rng, method, count, factor

    def __getattr__(self, name):
        draw = getattr(self._rng, name)
        if name != self._method:
            return draw

        def scaled(*args, **kwargs):
            values = draw(*args, **kwargs)
            scaled_count = min(self._left, np.size(values))
            self._left -= scaled_count
            if np.ndim(values) == 0:
                return values * self._factor if scaled_count else values
            values.reshape(-1)[:scaled_count] *= self._factor
            return values

        return scaled
