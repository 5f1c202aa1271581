"""Draws shared by the test modules."""

import numpy as np


def random_direction(rng):
    """Uniform unit vector on the sphere, from three standard normal draws."""
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)
