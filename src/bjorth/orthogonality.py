"""Birkhoff-James orthogonality and acute/obtuse angle classification.

A vector x is Birkhoff-James orthogonal to y when ||x + t*y|| >= ||x|| for
every real t.  The classical characterization says this holds exactly when
some norming functional of x annihilates y; likewise x is at an acute angle
to y (the inequality for t >= 0 only) exactly when some norming functional
is nonnegative on y, and strictly acute when all of them are positive.

Over the finite extreme-point representation of the norming set these
conditions become min/max tests on finitely many dual pairings, which is how
``classify_angle`` decides (``classify_many`` on whole arrays of pairs).  An
independent cross-check is provided by direct golden-section minimization of
the convex map t -> ||x + t*y|| (``one_sided_acute_many`` runs it on whole
arrays of pairs in lockstep).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DimensionMismatch, InvalidMargin, NonFiniteInput, ZeroDirection, ZeroVector
from .spaces import FrozenValue, NormedSpace, top_exponent, top_exponents

# Default decision margin, relative to the norm of the right argument.
MARGIN = 1e-9

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# The golden-section searches' bracket width and iteration cap.
GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200


class AngleTag(enum.Enum):
    STRICTLY_ACUTE = "strictly-acute"
    ORTHOGONAL = "orthogonal"
    STRICTLY_OBTUSE = "strictly-obtuse"
    DEGENERATE_LEFT = "degenerate"


class AngleRelation(FrozenValue):
    """Classification of the pair (x, y) plus its witness bounds.

    min_bound and max_bound are the extremes of f(y) over the norming
    functionals of x: the left and right derivatives of t -> ||x + t*y|| at
    t = 0.  scale is ||y||, the unit of the decision margin; all three are
    0.0 when x = 0.  Where ||y|| overflows, the tag is decided on y scaled
    down by a power of two and the fields are reported in the caller's
    units (scale inf, as is a bound past the range); the distances are
    taken on the decided values, kept in _scaled.
    """

    _fields = ("tag", "min_bound", "max_bound", "scale")

    def __init__(self, tag: AngleTag, min_bound: float, max_bound: float, scale: float,
                 _scaled: tuple | None = None):
        vars(self).update(tag=tag, min_bound=min_bound, max_bound=max_bound, scale=scale,
                          _scaled=_scaled)

    def __eq__(self, other):
        # One bool for scalar and array relations alike; _scaled is derived.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in self._fields)

    __hash__ = FrozenValue.__hash__

    def _decided(self):
        """(min_bound, max_bound, scale) in the units the tag was decided in."""
        return self._scaled or (self.min_bound, self.max_bound, self.scale)

    # The predicates and distances use numpy's elementwise operations, so
    # they hold row by row for the array fields classify_many returns.
    @property
    def is_orthogonal(self) -> bool:
        return self.tag == AngleTag.ORTHOGONAL

    @property
    def is_acute(self) -> bool:
        """x at an acute angle to y: orthogonal or strictly acute."""
        return self.is_orthogonal | (self.tag == AngleTag.STRICTLY_ACUTE)

    @property
    def is_obtuse(self) -> bool:
        return self.is_orthogonal | (self.tag == AngleTag.STRICTLY_OBTUSE)

    @property
    def is_bj_orthogonal(self) -> bool:
        """x Birkhoff-James orthogonal to y: orthogonal, or x = 0."""
        return self.is_orthogonal | (self.tag == AngleTag.DEGENERATE_LEFT)

    def orthogonality_distance(self) -> float:
        """orthogonality_distance of the decided bounds: 0 when orthogonal."""
        return orthogonality_distance(*self._decided())

    def acute_distance(self) -> float:
        """acute_distance of the decided bounds."""
        return acute_distance(*self._decided()[1:])


def angle_masks(mn, mx, scale, live, margin: float):
    """The margin rule on arrays of witness bounds, row by row: boolean masks
    in AngleTag's order, (strictly acute, orthogonal, strictly obtuse).
    mn > margin * scale is strictly acute, else mx < -margin * scale strictly
    obtuse, else orthogonal; where live is false (x = 0) the pair is in none."""
    thr = margin * scale
    acute = live & (mn > thr)
    obtuse = (live ^ acute) & (mx < -thr)
    return acute, live ^ acute ^ obtuse, obtuse


def orthogonality_distance(mn, mx, scale):
    """Distance of the witness bounds from straddling zero per unit of scale
    (0 if mn <= 0 <= mx, inf at scale 0): how far from the boundary."""
    return _per_scale(np.maximum(np.maximum(mn, -mx), 0.0), scale)


def acute_distance(mx, scale):
    """Distance of mx from zero (the acute boundary) per unit of scale; inf at scale 0."""
    return _per_scale(np.abs(mx), scale)


def _per_scale(values, scale):
    return np.divide(values, scale, out=np.full(np.shape(values), math.inf), where=scale != 0.0)[()]


def check_margin(margin: float, name: str = "margin") -> None:
    """Reject a decision margin that is NaN or infinite (NonFiniteInput) or
    negative (InvalidMargin: the band would exclude zero and tag obtuse
    pairs acute).  name is the parameter the messages give."""
    if not math.isfinite(margin):
        raise NonFiniteInput(f"{name} must be finite, got {margin}")
    if margin < 0.0:
        raise InvalidMargin(f"{name} must be >= 0, got {margin}")


def classify_angle(space: NormedSpace, x, y, margin: float = MARGIN) -> AngleRelation:
    """Three-way angle classification with a tolerance band around zero.

    Strictly acute iff every norming functional of x is positive on y
    (beyond the margin); strictly obtuse iff every one is negative;
    orthogonal iff the bounds straddle the margin band.  x = 0 yields the
    degenerate tag.
    """
    xa, ya = space.check_vector(x), space.check_vector(y)
    check_margin(margin)
    return _classify(space, xa, ya, margin)


def _classify(space: NormedSpace, xa: np.ndarray, ya: np.ndarray,
              margin: float) -> AngleRelation:
    """classify_angle on checked arrays and a checked margin."""
    if not np.count_nonzero(xa):
        return AngleRelation(AngleTag.DEGENERATE_LEFT, 0.0, 0.0, 0.0)
    scale = space._norm(ya)  # scalar norms overflow to inf quietly
    k = 0
    if scale == math.inf:
        # The relation is homogeneous in y: decide on y * 2**-k instead.
        k = top_exponent(ya.tolist())
        ya = np.ldexp(ya, -k)
        scale = space._norm(ya)
    vals = [float(np.dot(f, ya)) for f in space._support(xa)]
    mn, mx = min(vals), max(vals)
    thr = margin * scale  # angle_masks' rule, inline: a call adds ~0.3 us to a single query
    tag = (AngleTag.STRICTLY_ACUTE if mn > thr else AngleTag.STRICTLY_OBTUSE if mx < -thr
           else AngleTag.ORTHOGONAL)
    if not k:
        return AngleRelation(tag, mn, mx, scale)
    return AngleRelation(tag, *(float(_unscaled(v, k)) for v in (mn, mx, scale)),
                         _scaled=(mn, mx, scale))


def _checked_rows(space: NormedSpace, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """X and Y as two (n, dim) float arrays of finite rows."""
    X, Y = space.check_rows(X), space.check_rows(Y)
    if Y.shape != X.shape:
        raise DimensionMismatch(f"X and Y have shapes {X.shape} and {Y.shape}")
    return X, Y


def witness_rows(space: NormedSpace, X, Y) -> tuple:
    """classify_many's checks and witness bounds of every row pair, one array
    path: (mn, mx, scale, live, k), live where x != 0 and mn = mx = scale =
    0.0 elsewhere.  A live row whose ||y|| overflows is decided on y * 2**-k
    as in classify_angle, in those units; k is None if no row overflows."""
    X, Y = _checked_rows(space, X, Y)
    live, k = X.any(axis=1), None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = space._norms(Y)
        if (big := live & (scale == math.inf)).any():
            k = np.where(big, top_exponents(Y), 0)
            Y = np.ldexp(Y, -k[:, None])
            scale = space._norms(Y)
        mn, mx = space._bounds(X, Y)
    return (*(np.where(live, v, 0.0) for v in (mn, mx, scale)), live, k)


def classify_many(space: NormedSpace, X, Y, margin: float = MARGIN) -> AngleRelation:
    """classify_angle on every row pair (X[i], Y[i]) in a few array passes.

    Returns an AngleRelation whose fields are arrays, row i holding the
    relation of (X[i], Y[i]); tag is an object array of AngleTag members.

    The zero rule, margin test and witness bounds are classify_angle's,
    which stays the reference; the bounds agree with it to rounding.
    """
    mn, mx, scale, live, k = witness_rows(space, X, Y)
    check_margin(margin)
    tag = np.full(len(live), AngleTag.DEGENERATE_LEFT, dtype=object)
    for mask, member in zip(angle_masks(mn, mx, scale, live, margin), AngleTag):
        tag[mask] = member
    if k is None:
        return AngleRelation(tag, mn, mx, scale)
    return AngleRelation(tag, *(_unscaled(v, k) for v in (mn, mx, scale)),
                         _scaled=(mn, mx, scale))


def is_bj_orthogonal(space: NormedSpace, x, y, margin: float = MARGIN) -> bool:
    """Birkhoff-James orthogonality via the norming-functional test.

    The zero vector is orthogonal to everything (and everything to it).
    """
    return classify_angle(space, x, y, margin).is_bj_orthogonal


def is_mutually_orthogonal(space: NormedSpace, x, y, margin: float = MARGIN) -> bool:
    """Mutual Birkhoff-James orthogonality: both directions at once."""
    xa, ya = space.check_vector(x), space.check_vector(y)
    check_margin(margin)
    return (_classify(space, xa, ya, margin).is_bj_orthogonal
            and _classify(space, ya, xa, margin).is_bj_orthogonal)


def golden_section_min(phi, lo: float, hi: float) -> tuple[float, float]:
    """Minimize a convex function on [lo, hi] by golden-section search.

    Returns the best evaluated point and value; the bracket is shrunk to
    width GOLDEN_TOL, one new evaluation per iteration, GOLDEN_MAX_ITER at most.
    """
    a, b = float(lo), float(hi)
    best_x, best_f = a, phi(a)
    fb_end = phi(b)
    if fb_end < best_f:
        best_x, best_f = b, fb_end
    h = b - a
    if h <= GOLDEN_TOL:
        return best_x, best_f
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = phi(c), phi(d)
    for pt, val in ((c, fc), (d, fd)):
        if val < best_f:
            best_x, best_f = pt, val
    for _ in range(GOLDEN_MAX_ITER):
        if h <= GOLDEN_TOL:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _INV_PHI * h
            fc = phi(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = phi(d)
            if fd < best_f:
                best_x, best_f = d, fd
    mid = 0.5 * (a + b)
    fm = phi(mid)
    if fm < best_f:
        best_x, best_f = mid, fm
    return best_x, best_f


def _golden_section_rows(phi, lo: np.ndarray, hi: np.ndarray,
                         data: tuple) -> tuple[np.ndarray, np.ndarray]:
    """golden_section_min on every row at once: phi(*rows, t) evaluates at t
    the objectives of the rows whose slices of data (arrays with a row axis
    first) it is given.  Each row takes exactly the scalar search's bracket
    updates and evaluations.  The rows still shrinking keep their state and
    data packed, advanced with np.where by one phi call a pass; a row leaves
    when its bracket reaches GOLDEN_TOL or GOLDEN_MAX_ITER runs out, and its
    midpoint is evaluated after the last pass."""
    def improve(t, f, bx, bf):
        better = f < bf
        return np.where(better, t, bx), np.where(better, f, bf)

    a, b = lo.astype(float), hi.astype(float)
    best_x, best_f = improve(b, phi(*data, b), a, phi(*data, a))
    rows = np.flatnonzero(b - a > GOLDEN_TOL)
    if not len(rows):
        return best_x, best_f
    # Packed: row indices, brackets [a, b] (width h, interior points c < d
    # valued fc, fd), best points and values, data.  mids: rows that left.
    at_rows = tuple(v[rows] for v in data)
    idx, mids, a, b, packed = rows, a, a[rows], b[rows], at_rows
    h = b - a
    c, d = b - _INV_PHI * h, a + _INV_PHI * h
    fc, fd = phi(*packed, c), phi(*packed, d)
    bx, bf = improve(d, fd, *improve(c, fc, best_x[rows], best_f[rows]))
    for i in range(GOLDEN_MAX_ITER + 1):
        if i == GOLDEN_MAX_ITER or h.min() <= GOLDEN_TOL:
            done = (h <= GOLDEN_TOL) | (i == GOLDEN_MAX_ITER)
            mids[idx[done]] = 0.5 * (a[done] + b[done])
            best_x[idx[done]], best_f[idx[done]] = bx[done], bf[done]
            if done.all():
                break
            keep = ~done
            idx, a, b, c, d, fc, fd, bx, bf, *packed = (
                v[keep] for v in (idx, a, b, c, d, fc, fd, bx, bf, *packed))
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        h = b - a
        step = _INV_PHI * h
        t = np.where(left, b - step, a + step)
        f = phi(*packed, t)
        c, d = np.where(left, t, d), np.where(left, c, t)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        bx, bf = improve(t, f, bx, bf)
    mid = mids[rows]
    best_x[rows], best_f[rows] = improve(mid, phi(*at_rows, mid), best_x[rows], best_f[rows])
    return best_x, best_f


# Smallest bracket L = 2||x||/||y|| searched as it is.  The search resolves
# t to an absolute tolerance, so a far smaller bracket loses its resolution
# (below 2e-11 not one step is taken), and a bracket beyond the float range
# is inf.  There y is first rescaled by an exact power of two that brings L
# into (1, 4).  The brackets of the Radon scans (about 2) and of the sampled
# sum-acute checks (above 0.03) lie in between and keep their arithmetic.
_MIN_BRACKET = 2.0**-10

# Largest and smallest ||x|| searched as it is.  The search takes norms up
# to 3||x||, so a larger x (its norm may even overflow) is first scaled by
# the exact power of two 2**-s that puts its largest coordinate in [1/2, 1),
# and so is a smaller nonzero x, whose values would lose the bits that decide
# the search among the subnormals (_MIN_NORM keeps 53 down to 2**-54 ||x||).
_MAX_NORM, _MIN_NORM = 2.0**1020, 2.0**-968


def _unscaled(t, e):
    """t * 2**e, back in the caller's units; +-inf past the float range."""
    with np.errstate(over="ignore"):
        return np.ldexp(t, e)


def _min_on_line(space: NormedSpace, xa: np.ndarray, ya: np.ndarray,
                 lo: float) -> tuple[float, float, float, int]:
    """oracle_min_over_line over [lo * L, L] on checked arrays, y != 0.

    Returns (argmin, min, ||x||, s): the argmin in units of y, and the min
    and the norm of x * 2**-s, s = 0 when _MIN_NORM <= ||x|| <= _MAX_NORM.
    The search minimizes space._line(x, y): on Lp and Day-James planes a
    Python-float objective, bit for bit the array form ||x + t*y||.
    """
    nx, ny = space._norm(xa), space._norm(ya)  # scalar norms overflow to inf quietly
    s = 0
    if nx > _MAX_NORM or 0.0 < nx < _MIN_NORM:
        s = top_exponent(xa.tolist())
        xa = np.ldexp(xa, -s)
        nx = space._norm(xa)
    if nx == 0.0:
        return 0.0, nx, nx, 0
    lam = 2.0 * float(nx) / float(ny)  # Python floats overflow to inf quietly
    e = 0
    if not _MIN_BRACKET <= lam < math.inf:
        # An overflowing ||y|| takes its exponent from y's largest coordinate.
        e = math.frexp(nx)[1] - (math.frexp(ny)[1] if ny < math.inf
                                 else top_exponent(ya.tolist()))
        ya = np.ldexp(ya, e)
        lam = 2.0 * nx / space._norm(ya)
    t, val = golden_section_min(space._line(xa, ya), lo * lam, lam)
    return (float(_unscaled(t, e + s)) if e + s else t), val, nx, s


def _min_on_lines(space: NormedSpace, X: np.ndarray, Y: np.ndarray,
                  lo: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_min_on_line on every row pair, nonzero x and y, with its rescaling
    rules, in lockstep passes of space._norms."""
    with np.errstate(over="ignore"):
        nx = space._norms(X)
        ny = space._norms(Y)
    s = np.zeros(len(X), dtype=int)
    scaled = (nx > _MAX_NORM) | (nx < _MIN_NORM)
    if scaled.any():
        s[scaled] = top_exponents(X[scaled])
        X = X.copy()
        X[scaled] = np.ldexp(X[scaled], -s[scaled, None])
        nx[scaled] = space._norms(X[scaled])
    with np.errstate(over="ignore"):
        lam = 2.0 * nx / ny
    e = np.zeros(len(X), dtype=int)
    far = ~((lam >= _MIN_BRACKET) & (lam < math.inf))
    if far.any():
        ey = np.where(ny[far] < math.inf, np.frexp(ny[far])[1], top_exponents(Y[far]))
        e[far] = np.frexp(nx[far])[1] - ey
        Y = Y.copy()
        Y[far] = np.ldexp(Y[far], e[far, None])
        lam[far] = 2.0 * nx[far] / space._norms(Y[far])
    phi = lambda x, y, t: space._norms(x + t[:, None] * y)
    t, val = _golden_section_rows(phi, lo * lam, lam, (X, Y))
    return _unscaled(t, e + s), val, nx, s


def oracle_min_over_line(space: NormedSpace, x, y) -> tuple[float, float]:
    """Directly minimize t -> ||x + t*y|| over t.

    Any minimizer lies in [-L, L] with L = 2||x||/||y||, since beyond that
    the reverse triangle inequality forces the value above ||x||.  Returns
    (argmin, min) with the argmin resolved to absolute tolerance 1e-10.
    When L is not finite or far below one, the search runs on y rescaled by
    a power of two: the tolerance then applies in those units, and the
    argmin, returned in units of y, can overflow to +-inf; when ||y|| is
    itself past the float range, the power of two comes from y's largest
    coordinate.  When ||x|| is beyond 2**1020, or nonzero below 2**-968, x
    is scaled by a power of two for the search, and the min, returned in
    units of x, is inf when it is past the float range.  On Lp and
    Day-James planes the objective runs on Python floats (spaces._line2),
    with the same roundings as the array form ||x + t*y||, so the results
    are the same bit for bit.
    """
    xa, ya = space.check_vector(x), space.check_vector(y)
    if not np.count_nonzero(ya):
        raise ZeroDirection("line minimization needs y != 0")
    t, val, _, s = _min_on_line(space, xa, ya, -1.0)
    return t, (float(_unscaled(val, s)) if s else val)


def is_bj_orthogonal_oracle(space: NormedSpace, x, y, margin: float = MARGIN) -> bool:
    """Independent orthogonality check by direct line minimization."""
    xa, ya = space.check_vector(x), space.check_vector(y)
    check_margin(margin)
    if not (np.count_nonzero(xa) and np.count_nonzero(ya)):
        return True
    _, val, nx, _ = _min_on_line(space, xa, ya, -1.0)
    return val >= nx * (1.0 - margin)


def one_sided_acute_oracle(space: NormedSpace, x, y, margin: float = MARGIN) -> bool:
    """Independent acute-angle check: minimize over t >= 0 only."""
    xa, ya = space.check_vector(x), space.check_vector(y)
    check_margin(margin)
    if not np.count_nonzero(xa):
        raise ZeroVector("acute-angle oracle needs x != 0")
    if not np.count_nonzero(ya):
        return True
    _, val, nx, _ = _min_on_line(space, xa, ya, 0.0)
    return val >= nx * (1.0 - margin)


def one_sided_acute_many(space: NormedSpace, X, Y, margin: float = MARGIN) -> np.ndarray:
    """one_sided_acute_oracle on every row pair (X[i], Y[i]), as a bool array.

    The rows run golden_section_min's bracket updates in lockstep, each pass
    one space._norms call over the packed rows still shrinking.  The rules
    are the scalar oracle's, which stays the reference: a zero row of X
    raises ZeroVector and a zero row of Y counts as acute.
    """
    X, Y = _checked_rows(space, X, Y)
    check_margin(margin)
    if not X.any(axis=1).all():
        raise ZeroVector("acute-angle oracle needs x != 0")
    acute = np.ones(len(X), dtype=bool)
    live = Y.any(axis=1)
    if live.any():
        _, val, nx, _ = _min_on_lines(space, X[live], Y[live], 0.0)
        acute[live] = val >= nx * (1.0 - margin)
    return acute


def oracle_exclusion_band(margin: float = MARGIN) -> float:
    """Boundary exclusion band for comparisons against the line oracles.

    The minimization oracles resolve an orthogonality violation of
    normalized size d only through a value deficit of order d^2, so
    agreement tests must stand clear of the boundary by much more than the
    margin itself.  The floor 1e-3 leaves two orders of headroom over
    sqrt(2 * margin) at the default margin.
    """
    return max(10.0 * margin, 1e-3)


def orthogonal_direction(space: NormedSpace, x, rng: np.random.Generator) -> np.ndarray:
    """Construct y with x exactly orthogonal to y (up to rounding), by the
    space's own rule (NormedSpace._orth).  Smooth planes: spaces.perp2, the
    Euclidean perp of the unique norming functional.  Higher-dimensional
    p-norm spaces: a random vector projected onto the functional's kernel.
    Max norms: a random vector with every tied max coordinate zeroed.
    Max-sums: the partner inside one norm-attaining part, zero elsewhere, so
    the choice is immune to part ties.
    """
    xa = space.check_vector(x)
    if not np.count_nonzero(xa):
        raise ZeroVector("orthogonal partner needs x != 0")
    return space._orth(xa, rng)
