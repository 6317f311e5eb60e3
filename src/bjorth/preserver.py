"""Orthogonality-preserving maps between the Euclidean plane and Radon planes.

In a smooth Radon plane every direction has a unique Birkhoff-James
orthogonal direction, and the pairing is symmetric.  Writing y(t) for the
unit vector of the plane at polar angle t, there is a continuous increasing
bijection eta from [0, pi/2] onto [pi/2, pi] with eta(0) = pi/2,
eta(pi/2) = pi, and y(t) orthogonal to y(eta(t)).  The plane map T sends the
Euclidean unit vector at angle t to y(t) on the first quadrant and to
y(eta(t - pi/2)) on the second; extending oddly to the full circle and then
homogeneously to the whole plane produces a norm-preserving homogeneous
bicontinuous bijection that preserves Birkhoff-James orthogonality in both
directions, even though the spaces need not be isometric.

``pairing_table`` tabulates eta on a uniform grid of [0, pi/2]: its rows are
both the certificate ``build_preserver`` checks and the eta artifact the
command line writes.  The map holds only its plane and computes each image
from the plane's norming functionals, with no table.

A map sets its source and target spaces and maps rows by _forward and
_backward.  Componentwise combination lifts such maps to l-infinity direct
sums, which yields preserver pairs in every ambient dimension.

``verify_preserver`` certifies a constructed map by seeded sampling:
orthogonality and acute-angle agreement between source pairs and their
images, norm preservation, homogeneity, and an empirical continuity modulus.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import (MonotonicityViolation, NoBracket, NonConvergence, NotRadonPlane,
                     check_count)
from .orthogonality import (MARGIN, acute_distance, angle_masks, check_margin,
                            orthogonality_distance, witness_rows)
from .sampling import as_uniform, draw_rows, nonzero_rows
from .spaces import Frozen, InfSum, Lp, NormedSpace, Report, partner2, perp2, unit2

HALF_PI = 0.5 * math.pi

EUCLIDEAN_PLANE = Lp(dim=2, p=2.0)


def _require_radon(plane: NormedSpace) -> None:
    if not plane.radon_candidate:
        raise NotRadonPlane(f"not a supported smooth Radon plane: {plane!r}")


def pairing_table(plane: NormedSpace,
                  grid_size: int = 1024) -> list[tuple[float, float, float]]:
    """The pairing of a smooth Radon plane, tabulated: build_preserver's
    certificate and the eta artifact.  One row (theta, eta, residual) per
    theta of np.linspace(0, pi/2, grid_size + 1): the partner angle eta and
    its forward residual |f(y(eta))|, f the functional at y(theta).  The end
    rows are the axes' own (0 pairs with pi/2, pi/2 with pi), the interior
    ones spaces.partner2's, the Radon scan's first quadrant bit for bit.
    Checks, in order: NotRadonPlane; check_count(grid_size) with floor 64;
    NoBracket for a partner outside [pi/2, pi]; NonConvergence for a
    residual not at most 1e-10 / |y(theta)| (1e-10 |f|, as f(y) = 1); and
    MonotonicityViolation unless eta increases strictly, so that a plane
    whose floats tie is refused rather than certified.
    """
    _require_radon(plane)
    grid_size = check_count(grid_size, "grid_size", 64)
    rows = []
    for theta in np.linspace(0.0, HALF_PI, grid_size + 1).tolist():
        if 0.0 < theta < HALF_PI:
            y, root, _, resid = partner2(plane, theta)
            if not HALF_PI <= root <= math.pi:
                raise NoBracket(f"the partner {root} of theta={theta} is outside [pi/2, pi]")
            if not resid <= 1e-10 / math.hypot(*y):  # a NaN residual too
                raise NonConvergence(f"orthogonality residual {resid} at theta={theta}")
        else:  # f = (1, 0) at y(0) reads y(pi/2)'s first float, f = (0, 1) y(pi)'s second
            root, k = (HALF_PI, 0) if theta <= 0.0 else (math.pi, 1)
            resid = abs(unit2(plane, root)[k])
        rows.append((theta, root, resid))
    if any(eta1 >= eta2 for (_, eta1, _), (_, eta2, _) in zip(rows, rows[1:])):
        raise MonotonicityViolation("paired angles are not strictly increasing")
    return rows


class PreserverMap(ABC):
    """A norm-preserving homogeneous bijection with computable inverse.

    A map sets source and target, as attributes or properties, and defines
    two row methods on checked stacks: _forward maps the rows of an
    (n, source.dim) array, _backward those of an (n, target.dim) array.
    apply and apply_inverse take a vector or a stack of rows, check it once
    and map it through them, so a max-sum map checks its argument once
    rather than once per part.
    """

    source: NormedSpace
    target: NormedSpace

    @abstractmethod
    def _forward(self, X: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _backward(self, W: np.ndarray) -> np.ndarray: ...

    def apply(self, v) -> np.ndarray:
        """T v for a vector v, or T of each row of an (n, source.dim) stack."""
        return _checked(self._forward, self.source, v)

    def apply_inverse(self, w) -> np.ndarray:
        """The inverse of apply, on a vector or an (n, target.dim) stack."""
        return _checked(self._backward, self.target, w)


def _checked(rows, space: NormedSpace, v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 2:
        return rows(space.check_rows(arr))
    return rows(space.check_vector(arr)[None])[0]


class IdentityMap(Frozen, PreserverMap):
    """The identity on a space; the trivial preserver."""

    _fields = ("space",)

    def __init__(self, space: NormedSpace):
        vars(self).update(space=space, source=space, target=space)

    def _forward(self, X: np.ndarray) -> np.ndarray:
        return X.copy()

    _backward = _forward


class RadonPlaneMap(Frozen, PreserverMap):
    """The plane preserver from the Euclidean plane onto a smooth Radon plane.

    Unit circle action: angle t maps to y(t) for t in [0, pi/2] and to
    y(eta(t - pi/2)) for t in [pi/2, pi]; the lower half circle is the odd
    reflection, applied by sign canonicalization so that
    apply(-v) == -apply(v) holds exactly.  The map reads no angle and no
    table, only the plane, through spaces.perp2.  With r = hypot(a, b), a
    first-quadrant row (a, b) maps to r (a, b) / ||(a, b)|| and a
    second-quadrant one, at pi/2 + s where (b, -a) lies at s, to r w / ||w||
    for w = perp2(plane, b, -a).  The inverse maps (a, b) to
    ||(a, b)|| u / hypot(u), with u = (a, b) on the first quadrant and u the
    functional at (a, b) on the second: by Radon symmetry, y(s) is
    orthogonal to y(psi) exactly when y(psi) is orthogonal to y(s), so the
    functional at y(psi) annuls y(s) and points along the preimage pi/2 + s.
    The map holds only its plane and refuses one whose radon_candidate is
    false (NotRadonPlane); build_preserver also certifies, by
    pairing_table, that the plane's pairing is a strictly increasing
    bijection with pinned endpoints.
    """

    _fields = ("plane",)

    def __init__(self, plane: NormedSpace):
        _require_radon(plane)
        vars(self).update(plane=plane, source=EUCLIDEAN_PLANE, target=plane)

    def _upper(self, a: float, b: float) -> tuple[float, float]:
        # b >= 0, not both zero: polar angle lies in [0, pi].
        plane = self.plane
        r = math.hypot(a, b)
        c, d = perp2(plane, b, -a) if a < 0.0 else (a, b)
        n = plane._norm2(c, d)
        return r * (c / n), r * (d / n)

    def _forward(self, X: np.ndarray) -> np.ndarray:
        return _odd(self._upper, X)

    def _inverse_upper(self, a: float, b: float) -> tuple[float, float]:
        plane = self.plane
        r = plane._norm2(a, b)
        if a < 0.0:
            u, v = perp2(plane, a, b)
            a, b = v, -u  # the functional at (a, b)
        h = math.hypot(a, b)
        return r * (a / h), r * (b / h)

    def _backward(self, W: np.ndarray) -> np.ndarray:
        return _odd(self._inverse_upper, W)


def _odd(upper, X: np.ndarray) -> np.ndarray:
    """The rows (a, b) of X mapped by upper, a map of the half-plane b > 0 or
    b == 0 < a, extended oddly by sign canonicalization, so T(-v) == -T(v)
    exactly; zeros map to +0.0.  Rows are mapped one by one in Python
    floats, so their bits depend neither on the batch nor on numpy's CPU
    dispatch."""
    out = []
    for a, b in X.tolist():
        if a == 0.0 and b == 0.0:
            out += 0.0, 0.0
        elif b > 0.0 or (b == 0.0 and a > 0.0):
            out += upper(a, b)
        else:
            u0, u1 = upper(-a, -b)
            out += -u0, -u1
    return np.array(out).reshape(-1, 2)


class SumMap(Frozen, PreserverMap):
    """Componentwise combination of preservers between max-sums."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[PreserverMap, ...]):
        parts = tuple(parts)
        vars(self).update(parts=parts, source=InfSum(tuple(p.source for p in parts)),
                          target=InfSum(tuple(p.target for p in parts)))

    def _forward(self, X: np.ndarray) -> np.ndarray:
        pieces = self.source.split(X)
        return np.concatenate([p._forward(x) for p, x in zip(self.parts, pieces)], axis=1)

    def _backward(self, W: np.ndarray) -> np.ndarray:
        pieces = self.target.split(W)
        return np.concatenate([p._backward(w) for p, w in zip(self.parts, pieces)], axis=1)


def build_preserver(plane: NormedSpace, grid_size: int = 1024) -> RadonPlaneMap:
    """The plane map onto plane, certified by its pairing_table at grid_size."""
    pairing_table(plane, grid_size)
    return RadonPlaneMap(plane)


# A name of its own: the benchmark workloads, cmd_certify and the README build lifts by it.
compose_inf_sum = SumMap


class VerificationReport(Report):
    """Outcome of a seeded preserver verification sweep; first_disagreement
    is the first sample that disagrees."""

    _fields = ("samples", "boundary_excluded", "orth_disagreements", "acute_disagreements",
               "max_norm_error", "max_homog_error", "continuity_modulus", "seed", "passed",
               "first_disagreement")
    _defaults = {"first_disagreement": None}
    _json = ("samples", "disagreements", "first_disagreement", "boundary_excluded",
             "max_norm_error", "max_homog_error", "continuity_modulus", "seed", ("pass", "passed"),
             ("orthogonality_disagreements", "orth_disagreements"), "acute_disagreements")

    @property
    def disagreements(self) -> int:
        return self.orth_disagreements + self.acute_disagreements


def _pair_agreement(source: tuple, image: tuple, margin: float,
                    band: float) -> tuple[int, np.ndarray, np.ndarray]:
    """Compare the source and image witness_rows pair by pair, judged as
    classify_many judges them: by angle_masks at margin and the distances.
    Rows alternate a random pair and a constructed orthogonal pair.  Returns
    the number of excluded comparisons and two arrays over the samples: how
    many of its two pairs disagree on orthogonality, and whether its random
    pair disagrees on acuteness.  A pair is excluded from the orthogonality
    comparison when either side is non-orthogonal but within the band of
    the decision boundary; pairs classified orthogonal are always kept (they
    are the informative ones).  A random pair is excluded from the acute
    comparison when either side's right derivative is within band of zero.
    """
    def judged(mn, mx, scale, live, k):  # orthogonal, acute, and near each boundary
        acute, orthogonal, _ = angle_masks(mn, mx, scale, live, margin)
        return (orthogonal, acute | orthogonal, orthogonality_distance(mn, mx, scale) <= band,
                acute_distance(mx[::2], scale[::2]) <= band)

    orth_s, acute_s, near_s, edge_s = judged(*source)
    orth_t, acute_t, near_t, edge_t = judged(*image)
    orth_skip = (~orth_s & near_s) | (~orth_t & near_t)
    acute_skip = edge_s | edge_t
    orth_dis = ~orth_skip & (orth_s != orth_t)
    acute_dis = ~acute_skip & (acute_s != acute_t)[::2]
    return int(orth_skip.sum() + acute_skip.sum()), orth_dis.reshape(-1, 2).sum(axis=1), acute_dis


def verify_preserver(pmap: PreserverMap, n_samples: int, margin: float = MARGIN,
                     seed: int = 0) -> VerificationReport:
    """Certify a map on seeded random pairs from its source space.

    Each sample draws a random pair (x, y) plus a constructed pair
    (x, y_perp) with exact source orthogonality; random pairs are never
    orthogonal, so the constructed ones are what make the orthogonality
    comparison informative in both directions.  Only random pairs are
    compared on acuteness (y_perp sits on the acute boundary by
    construction).  boundary_excluded counts the comparisons skipped within
    10 * margin of a decision boundary.  Homogeneity is probed on every
    fifth sample and the continuity modulus on every tenth.  A pass allows
    no disagreement, norm errors to 1e-9 and homogeneity errors to 1e-12.

    Three phases.  Draw: sample i reads row i of the seeded draw table
    (sampling.draw_rows), 6 * dim + 2 columns: x and its reserve, y and its
    reserve (sampling.nonzero_rows), the random vector of y_perp
    (src._orth_rows), the continuity direction d, then the sign and
    log-uniform size of the homogeneity scale c; c and d are scaled on
    Python floats, and every sample reads every column, probed or not.
    Map: x, y, y_perp, c*x and x + d of every sample in one pmap._forward
    call.  Judge: the norm, homogeneity and continuity errors in sample
    order, then _pair_agreement on the witness_rows of every source and
    image pair, with no tag built.  A sample depends only on (seed, i), so
    first_disagreement at n samples names the same sample at any larger n.
    n_samples and seed pass check_count (floors 1 and 0).
    """
    n, seed = check_count(n_samples, "n_samples"), check_count(seed, "seed", 0)
    check_margin(margin)
    src, tgt, m = pmap.source, pmap.target, pmap.source.dim

    W = draw_rows(seed, 0, n, 6 * m + 2)
    X = nonzero_rows(src, W[:, :m], W[:, m : 2 * m])
    Y = nonzero_rows(src, W[:, 2 * m : 3 * m], W[:, 3 * m : 4 * m])
    Yp = src._orth_rows(X, W[:, 4 * m : 5 * m])
    nxs = [src._norm_of(x) for x in X.tolist()]
    lo, hi = math.log(0.1), math.log(10.0)  # |c| is log-uniform on [0.1, 10]
    homog = [(5 * k, math.copysign(math.exp(lo + (hi - lo) * as_uniform(u)), s))
             for k, (s, u) in enumerate(W[::5, -2:].tolist())]
    steps = []  # (i, d) every tenth sample
    for i in range(0, n, 10):
        d = W[i, 5 * m : 6 * m]
        steps.append((i, d * (1e-6 * nxs[i] / math.hypot(*d.tolist()))))

    h = len(homog)
    images = pmap._forward(np.concatenate(
        [X, Y, Yp, [c * X[i] for i, c in homog], [X[i] + d for i, d in steps]]
    ))
    TX = images[:n]

    max_norm_err = max(abs(tgt._norm_of(tx) - nx) / nx for tx, nx in zip(TX.tolist(), nxs))
    max_homog_err = max(
        tgt._norm(tcx - c * TX[i]) / (abs(c) * nxs[i])
        for tcx, (i, c) in zip(images[3 * n : 3 * n + h], homog)
    )
    continuity = 0.0
    for tu, (i, d) in zip(images[3 * n + h :], steps):
        num = tgt._norm(tu - TX[i])
        den = src._norm(d)
        if den > 0.0:
            continuity = max(continuity, num / den)

    def pairs(space, P, Q, R):  # rows alternate the pairs (x, y) and (x, y_perp)
        return witness_rows(space, np.repeat(P, 2, axis=0),
                            np.stack([Q, R], axis=1).reshape(2 * n, -1))

    excluded, orth_dis, acute_dis = _pair_agreement(
        pairs(src, X, Y, Yp), pairs(tgt, TX, images[n : 2 * n], images[2 * n : 3 * n]),
        margin, 10.0 * margin)
    disagreeing = np.flatnonzero(orth_dis + acute_dis)

    passed = len(disagreeing) == 0 and max_norm_err <= 1e-9 and max_homog_err <= 1e-12
    return VerificationReport(
        samples=n,
        boundary_excluded=excluded,
        orth_disagreements=int(orth_dis.sum()),
        acute_disagreements=int(acute_dis.sum()),
        max_norm_error=float(max_norm_err),
        max_homog_error=float(max_homog_err),
        continuity_modulus=float(continuity),
        seed=seed,
        passed=bool(passed),
        first_disagreement=int(disagreeing[0]) if len(disagreeing) else None,
    )
