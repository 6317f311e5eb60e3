import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import bjorth as bj
from bjorth.sampling import MIN_SAMPLE_NORM

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


# One representative of every supported family; reused across suites.
SPACE_ZOO = [
    bj.Lp(2, 2.0),
    bj.Lp(2, 3.0),
    bj.Lp(3, 2.5),
    bj.LInf(2),
    bj.LInf(3),
    bj.DayJames(3.0, 1.5),
    bj.DayJames(1.5, 3.0),
    bj.InfSum((bj.Lp(2, 2.0), bj.LInf(1))),
    bj.InfSum((bj.DayJames(3.0, 1.5), bj.LInf(2))),
]


@pytest.fixture(scope="session")
def space_zoo():
    return SPACE_ZOO


def draw_vector(data, dim):
    """Hypothesis draw: coordinates of magnitude in [1e-3, 1e3], random signs."""
    mags = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
    return np.array(mags) * np.array(signs)


def random_nonzero(space, rng):
    """Standard-normal coordinates, rejecting norms below MIN_SAMPLE_NORM."""
    while True:
        v = rng.standard_normal(space.dim)
        if space._norm(v) >= MIN_SAMPLE_NORM:
            return v


def judge_stack(space, rng, kinds, margin):
    """One pair (x, y) per kind (x zero?, y kind, c): x random or exactly
    zero; y random, "near" the orthogonality and acute boundaries, or
    "huge".  A near y is y_perp + t x, with f(y_perp) = 0 and f(x) = ||x||
    for every norming f of x, so f(y) is about c * margin * ||y||.  A huge
    y has coordinates of 1.5e308 to 1.79e308, where a p-norm part's norm
    overflows."""
    X, Y = [], []
    for zero, kind, c in kinds:
        x, y = random_nonzero(space, rng), random_nonzero(space, rng)
        if kind == "near":
            p = bj.orthogonal_direction(space, x, rng)
            y = p + (c * margin * space.norm(p) / space.norm(x)) * x
        elif kind == "huge":
            y = np.copysign(rng.uniform(1.5e308, 1.79e308, space.dim), y)
        X.append(0.0 * x if zero else x)
        Y.append(y)
    return np.array(X), np.array(Y)


# Hypothesis draw of one judge_stack kind: (x zero?, y kind, c).
KIND = st.tuples(st.integers(0, 4).map(lambda i: i == 0), st.sampled_from(["random", "near", "huge"]),
                 st.floats(-12.0, 12.0))


def non_radon_map(plane, grid_size=256):
    """The plane map onto a smooth plane that is not Radon: the
    fault-injection control.  Its pairing of directions is not symmetric
    there, so images of orthogonal pairs whose first vector lies in the
    second quadrant are not orthogonal.  build_preserver refuses the plane,
    so its family's radon_candidate is set while it builds."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(plane), "radon_candidate", True)
        return bj.build_preserver(plane, grid_size)


class _RadialInverse(bj.RadonPlaneMap):
    def _backward(self, W):
        return (self.target._norms(W) / np.hypot(W[:, 0], W[:, 1]))[:, None] * W


def radial_inverse_map(plane):
    """The plane map onto plane with a wrong inverse: each nonzero row w maps
    back to (||w|| / |w|_2) w, which keeps the norm but not the direction.
    verify_preserver never runs the inverse, so it passes this map."""
    return _RadialInverse(plane)


def outcome(fn, *args):
    """fn(*args), or the type of the BjorthError it raises."""
    try:
        return fn(*args)
    except bj.BjorthError as exc:
        return type(exc)


def dispatch_envs():
    """Environments for a bjorth subprocess: numpy's default CPU dispatch,
    then with the AVX-512 kernels of power, exp, log and arctan2 switched
    off (names a CPU lacks are ignored)."""
    src = str(Path(bj.__file__).resolve().parent.parent)
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env["PYTHONPATH"] = src
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        yield env
