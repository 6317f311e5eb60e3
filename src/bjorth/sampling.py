"""Seeded random vector generation shared by verification sweeps.

The sweeps draw from a table: sample i reads row i % BLOCK of the block of
standard normals drawn by the generator keyed by (seed, i // BLOCK).  Every
row of a sweep has the same width, fixed by the sweep before it draws, so a
sample depends only on (seed, i): the first n samples of any run are the
same, a run can be split across workers at any index, and replaying one
sample draws one block.
"""

from __future__ import annotations

import math

import numpy as np

from .spaces import NormedSpace

# Drawn rows below this norm are rejected by nonzero_rows.
MIN_SAMPLE_NORM = 1e-3

# Rows of the draw table per generator.
BLOCK = 64


def draw_rows(seed: int, start: int, stop: int, width: int) -> np.ndarray:
    """Rows start to stop - 1 (start < stop) of the seeded table of standard
    normals that is width columns wide.  A generator fills its block row by
    row, so a block drawn up to row k holds the first k rows of the full
    block, and only the rows up to stop are drawn."""
    out = []
    for b in range(start // BLOCK, -(-stop // BLOCK)):
        lo, hi = b * BLOCK, min((b + 1) * BLOCK, stop)
        rows = np.random.default_rng([seed, b]).standard_normal((hi - lo, width))
        out.append(rows[max(start - lo, 0):])
    return np.concatenate(out)


def nonzero_rows(space: NormedSpace, X: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Rejection on drawn rows: a row of X whose norm is below
    MIN_SAMPLE_NORM is replaced by its reserve row in R, and by the
    first basis vector where the reserve's is below too.  Every norm here
    is at least the max norm, bit for bit, so only the rows whose largest
    coordinate is below MIN_SAMPLE_NORM are tested, on the scalar norm."""
    out = X.copy()
    for i in np.flatnonzero(np.abs(X).max(axis=1) < MIN_SAMPLE_NORM):
        if space._norm(X[i]) < MIN_SAMPLE_NORM:
            out[i] = R[i] if space._norm(R[i]) >= MIN_SAMPLE_NORM else np.eye(space.dim)[0]
    return out


def as_uniform(z: float) -> float:
    """A standard normal draw read as a uniform draw in [0, 1]: its normal
    distribution function, through math.erfc on Python floats."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
