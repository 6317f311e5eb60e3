"""Seeded random vector generation shared by verification sweeps."""

from __future__ import annotations

import numpy as np

from .spaces import NormedSpace

# Vectors below this norm are rejected by the samplers.
MIN_SAMPLE_NORM = 1e-3


def random_nonzero(space: NormedSpace, rng: np.random.Generator,
                   min_norm: float = MIN_SAMPLE_NORM) -> np.ndarray:
    """Standard-normal coordinates, rejecting vectors of tiny norm."""
    while True:
        v = rng.standard_normal(space.dim)
        if space._norm(v) >= min_norm:
            return v


def random_unit(space: NormedSpace, rng: np.random.Generator) -> np.ndarray:
    """A random vector rescaled to norm one in the space."""
    v = random_nonzero(space, rng)
    return v / space._norm(v)
