"""Draws shared by the test modules."""

import numpy as np

from quasilab.operators import ATOL


def same_bits(a, b) -> bool:
    """Whether two arrays (or numbers) have one shape, one dtype and the
    same bytes: equal bit for bit, signed zeros and NaN payloads included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
