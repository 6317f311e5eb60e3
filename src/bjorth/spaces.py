"""Finite-dimensional real normed spaces with computable support functionals.

Four families are supported: the p-norm spaces ``Lp`` with 1 < p < inf, the
max norm ``LInf``, the two-exponent Day-James plane ``DayJames``, and finite
max-sums (l-infinity direct sums) ``InfSum`` of any of these.  Each family
exposes its norm and a finite extreme-point representation of the set of
norming functionals

    nu(x) = { f in the dual unit ball : f(x) = ||x|| },

which is a singleton for smooth points (Lp and DayJames away from zero), the
sign-pattern vertex set for the max norm, and the union of embedded part
support sets for max-sums.  All downstream orthogonality tests reduce to
evaluating linear functionals on these extreme points.

Vectors are plain float arrays of the space's ambient dimension; vectors of a
max-sum are the concatenations of the part vectors.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from functools import reduce

import numpy as np

from . import __version__
from .errors import (
    BadDimension,
    DimensionMismatch,
    EmptySum,
    InvalidExponent,
    NonFiniteInput,
    NotAPlane,
    NotSmooth,
    ParseError,
    ZeroVector,
)

# Certification tolerance for support functionals (norming and feasibility).
TAU_SUP = 1e-9
# Norm-attainment tie tolerance for max norms and max-sums.
TAU_TIE = 1e-9


def _check_exponent(p: float) -> float:
    p = float(p)
    if not math.isfinite(p) or p <= 1.0:
        raise InvalidExponent(f"exponent must be finite and > 1, got {p}")
    return p


def _check_dim(dim: int) -> int:
    if isinstance(dim, bool) or int(dim) != dim or int(dim) < 1:
        raise BadDimension(f"dimension must be a positive integer, got {dim}")
    return int(dim)


def _sign(t: float) -> float:
    if t > 0.0:
        return 1.0
    if t < 0.0:
        return -1.0
    return 0.0


def _pnorm2(a: float, b: float, r: float) -> float:
    """Scalar p-norm of a 2-vector in one power, M * (1 + (m/M)**r) ** (1/r),
    M >= m its absolute coordinates: the max-scaled form, bit for bit, as
    pow(1, r) == 1.  ||(c, 0)|| == c exactly; an inf coordinate gives inf."""
    aa, bb = abs(a), abs(b)
    if aa < bb:
        aa, bb = bb, aa
    if aa == 0.0:
        return 0.0
    return aa * (1.0 + math.pow(bb / aa, r)) ** (1.0 / r)


def _pgrad2(a: float, b: float, r: float) -> tuple[float, float]:
    """Gradient of the 2-vector p-norm at (a, b) != 0: its norming functional.
    With t = m/M and d = ||(1, t)||**(r-1), the larger coordinate takes
    sign / d and the smaller sign * t**(r-1) / d: four powers, the max-scaled
    form's six bit for bit, as pow(1, y) == 1."""
    aa, bb = abs(a), abs(b)
    t = bb / aa if aa >= bb else aa / bb
    d = math.pow((1.0 + math.pow(t, r)) ** (1.0 / r), r - 1.0)
    if aa >= bb:
        return _sign(a) / d, _sign(b) * math.pow(t, r - 1.0) / d
    return _sign(a) * math.pow(t, r - 1.0) / d, _sign(b) / d


def _line2(xa, ya, p: float, q: float):
    """NormedSpace._line of a plane on Python floats (xa, ya: 2-sequences):
    _pnorm2 inline, 1/p and 1/q taken once, exponent p where the coordinates
    share a sign, else q (Lp planes pass q = p).  The values are the array
    form's bit for bit: x0 + t*y0 rounds twice, as numpy's xa + t*ya does."""
    x0, x1, y0, y1 = float(xa[0]), float(xa[1]), float(ya[0]), float(ya[1])
    ip, iq = 1.0 / p, 1.0 / q

    def line(t):
        a, b = x0 + t * y0, x1 + t * y1
        if (a < 0.0) == (b < 0.0):
            r, ir = p, ip
        else:
            r, ir = q, iq
        a, b = abs(a), abs(b)
        if a < b:
            a, b = b, a
        if a == 0.0:
            return 0.0
        return a * (1.0 + math.pow(b / a, r)) ** ir
    return line


def _pscaled(X: np.ndarray, r):
    """Max-scaling of the rows of X: (M, T, S) with |X| = M * T and S the
    r-norm of each row of T.  r is a number or a column of per-row
    exponents; zero rows give M = S = 0."""
    A = np.abs(X)
    M = A.max(axis=1, keepdims=True)
    T = A / np.where(M > 0.0, M, 1.0)
    return M, T, np.sum(T**r, axis=1, keepdims=True) ** (1.0 / r)


def _pnorms(X: np.ndarray, r) -> np.ndarray:
    """Row-wise p-norms, the array form of _pnorm2; r is a number or, for two
    columns, a vector of per-row exponents.  Two columns take _pnorm2's
    one-power form: bit for bit _pscaled's floats on finite rows (an
    infinite coordinate gives inf here and NaN there)."""
    if X.shape[1] != 2:
        M, _, S = _pscaled(X, r)
        return (M * S)[:, 0]
    A = np.abs(X)
    M, m = np.maximum(A[:, 0], A[:, 1]), np.minimum(A[:, 0], A[:, 1])
    return M * (1.0 + (m / np.where(M > 0.0, M, 1.0)) ** r) ** (1.0 / r)


def _pbounds(X: np.ndarray, Y: np.ndarray, r) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise f(y) for the unique norming functional f (_pgrad2's array
    form) at the nonzero rows of X; both bounds coincide."""
    _, T, S = _pscaled(X, r)
    b = np.sum(np.sign(X) * T ** (r - 1.0) / S ** (r - 1.0) * Y, axis=1)
    return b, b


def top_exponents(V: np.ndarray):
    """The exponents e that put the largest coordinate of each row of an
    (n, dim) stack V * 2**-e in [1/2, 1); one vector takes top_exponent."""
    return np.frexp(np.abs(V).max(axis=-1))[1]


def top_exponent(coords) -> int:
    """top_exponents of one vector, on its coordinates as Python floats."""
    return math.frexp(max(map(abs, coords)))[1]


class Frozen:
    """Base of the package's immutable records: a record names its fields in
    _fields, after which assigning or deleting an attribute raises
    AttributeError.  repr is Name(field=value, ...); records compare by
    identity, FrozenValue's by their fields.  A plain record takes this
    __init__: its fields by position or keyword, unset ones from _defaults.
    A record that checks or derives attributes sets them in its own __init__
    (vars(self) or object.__setattr__): the spaces, SectionCandidate, the
    maps; and AngleRelation, built on every classify_angle, where this
    binder costs about three times the explicit one."""

    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields, bound = self._fields, dict(zip(self._fields, args))
        unknown, twice = sorted(kwargs.keys() - set(fields)), sorted(kwargs.keys() & bound.keys())
        missing = [k for k in fields[len(args):] if k not in kwargs and k not in self._defaults]
        if len(args) > len(fields) or unknown or twice or missing:
            raise TypeError(f"{type(self).__qualname__} takes {fields}: got {len(args)} by "
                            f"position; unknown {unknown}, repeated {twice}, missing {missing}")
        vars(self).update(self._defaults, **bound, **kwargs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Frozen):
    """A Frozen record equal to a record of its own class with equal fields,
    and hashed on the tuple of its fields."""

    def _values(self) -> tuple:
        return tuple([getattr(self, k) for k in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class Report(FrozenValue):
    """A FrozenValue record with a JSON form: to_dict emits the keys _json
    lays out, each an attribute name or a (key, attribute) pair, in order,
    then tool_version."""

    def to_dict(self) -> dict:
        keys = [(e, e) if isinstance(e, str) else e for e in self._json]
        return {**{key: getattr(self, attr) for key, attr in keys}, "tool_version": __version__}


class NormedSpace(ABC):
    """Common interface: a norm and extreme points of the norming set.

    Subclasses expose ``dim`` (field or property), ``_norm`` on a checked
    array, ``_norm_of``, the same floats on a list of Python floats (the
    max-sums' part norms; a family that defines only ``_norm`` is adapted),
    and ``_support`` on a checked nonzero array, plus their row-wise array
    forms: ``_norms`` on an (n, dim) array, and ``_bounds``, the (min, max)
    of f(y) over the extreme norming functionals f of x, row by row, for
    rows x of X (NaN allowed at x = 0) and y of Y.  The line
    oracles minimize ``_line``, which Lp and Day-James planes evaluate on
    Python floats (``_line2``).  Public entry points pass each caller's
    vector through ``check_vector`` (a stack of rows through ``check_rows``)
    once; a vector is zero only when every coordinate is exactly zero.

    Each family states its capabilities, so no other module asks which
    family a space is.  The defaults fit a smooth space; a family overrides
    where it differs: ``_smooth_plane`` (a smooth plane: ``_norm2`` and
    ``_grad2`` on Python floats, ``_line`` optional), ``radon_candidate``
    (a smooth Radon plane, the plane map's target), ``_exact_ties``
    (scaling a vector whose largest coordinate is +-1 scales its norm
    exactly: the sum-acute ties), ``_orth`` and ``_orth_rows``
    (orthogonal_direction's rule and draws, one row or every row), and
    ``_tie_probe``.  A leaf of the descriptor grammars (_LEAVES) also
    names its compact ``_tag`` and its JSON ``_type``.
    """

    dim: int
    _smooth_plane = radon_candidate = _exact_ties = False

    def check_vector(self, v) -> np.ndarray:
        arr = np.asarray(v, dtype=float)
        if arr.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected a vector of length {self.dim}, got shape {arr.shape}"
            )
        coords = arr.tolist()
        if not all(map(math.isfinite, coords)):
            raise NonFiniteInput(f"vector coordinates must be finite, got {coords}")
        return arr

    def check_rows(self, X) -> np.ndarray:
        """check_vector for an (n, dim) stack of row vectors."""
        arr = np.asarray(X, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DimensionMismatch(
                f"expected an (n, {self.dim}) array of rows, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteInput("row coordinates must be finite")
        return arr

    def norm(self, v) -> float:
        return self._norm(self.check_vector(v))

    def is_zero(self, v) -> bool:
        return not np.count_nonzero(self.check_vector(v))

    def support_set(self, x) -> list[np.ndarray]:
        """Extreme points of nu(x); raises ZeroVector at the origin."""
        arr = self.check_vector(x)
        if not np.count_nonzero(arr):
            raise ZeroVector("support set is undefined at the zero vector")
        return self._support(arr)

    def _line(self, xa, ya):
        """The line oracles' objective t -> ||xa + t*ya||, xa and ya array-like."""
        xa, ya = np.asarray(xa, dtype=float), np.asarray(ya, dtype=float)
        return lambda t: self._norm(xa + t * ya)

    def _norm_of(self, coords: list) -> float:
        """_norm on a list of Python floats: a family that defines only _norm
        is adapted here."""
        return self._norm(np.array(coords))

    def _orth(self, xa: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """orthogonal_direction on a checked nonzero array: perp2 on a smooth
        plane, else a random vector projected onto the kernel of the first
        norming functional."""
        if self._smooth_plane:
            return np.array(perp2(self, *xa.tolist()))
        f = self._support(xa)[0]
        xa = np.ldexp(xa, -top_exponent(xa.tolist()))  # f(x) = ||x|| >= 1/2: f(v)/f(x) is finite
        v = rng.standard_normal(self.dim)
        return v - (float(np.dot(f, v)) / float(np.dot(f, xa))) * xa

    def _orth_rows(self, X: np.ndarray, V: np.ndarray) -> np.ndarray:
        """_orth on every row of X in array passes, row i of V the vector row
        i draws.  It checks nothing: X and V are finite (n, dim) arrays and no
        row of X is zero.  A max-sum picks each row's part by the row norms,
        so only a part tie within rounding may pick the other side of it."""
        if self._smooth_plane:
            return np.array([perp2(self, a, b) for a, b in X.tolist()]).reshape(-1, 2)
        return V - (self._bounds(X, V)[0] / self._bounds(X, X)[0])[:, None] * X

    def __repr__(self):  # a family outside the grammars; Frozen's comes first in theirs
        return f"{type(self).__qualname__}(dim={self.dim})"

    def _tie_probe(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """A deterministic probe point at a norm-attainment tie, with the
        difference directions along which a kink would show."""
        x = np.ones(self.dim)
        return x / self._norm(x), []

    @abstractmethod
    def _norm(self, arr: np.ndarray) -> float: ...

    @abstractmethod
    def _support(self, arr: np.ndarray) -> list[np.ndarray]: ...

    @abstractmethod
    def _norms(self, X: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _bounds(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


class Lp(FrozenValue, NormedSpace):
    """R^dim with the p-norm, 1 < p < inf (smooth; p = inf is LInf)."""

    _fields, _tag, _type = ("dim", "p"), "lp", "lp"

    def __init__(self, dim: int, p: float):
        object.__setattr__(self, "dim", _check_dim(dim))
        object.__setattr__(self, "p", _check_exponent(p))
        object.__setattr__(self, "_smooth_plane", self.dim == 2)

    @property
    def radon_candidate(self) -> bool:
        """The Euclidean plane lp:2:2; other Lp planes are smooth but not Radon."""
        return self._smooth_plane and self.p == 2.0

    def _norm(self, arr):
        if self.dim == 2:
            a, b = arr.tolist()
            return _pnorm2(a, b, self.p)
        return self._norm_of(arr.tolist())

    def _norm_of(self, coords):
        if self.dim == 2:
            a, b = coords
            return _pnorm2(a, b, self.p)
        A = [abs(c) for c in coords]
        m = max(A)
        if m == 0.0:
            return 0.0
        return m * math.fsum([math.pow(a / m, self.p) for a in A]) ** (1.0 / self.p)

    def _support(self, arr):
        # Unique norming functional: sign(x_i) |x_i|^(p-1) / ||x||^(p-1).
        if self.dim == 2:
            a, b = arr.tolist()
            return [np.array(_pgrad2(a, b, self.p))]
        coords, p = arr.tolist(), self.p
        m = max(map(abs, coords))
        T = [abs(c) / m for c in coords]
        d = math.pow(math.fsum([math.pow(t, p) for t in T]) ** (1.0 / p), p - 1.0)
        return [np.array([(1.0 if c > 0.0 else -1.0 if c < 0.0 else 0.0) * math.pow(t, p - 1.0) / d
                          for c, t in zip(coords, T)])]

    def _norms(self, X):
        return _pnorms(X, self.p)

    def _bounds(self, X, Y):
        return _pbounds(X, Y, self.p)

    def _line(self, xa, ya):
        return _line2(xa, ya, self.p, self.p) if self.dim == 2 else super()._line(xa, ya)

    # Scalar fast paths used by the plane constructions.
    def _norm2(self, a: float, b: float) -> float:
        return _pnorm2(a, b, self.p)

    def _grad2(self, a: float, b: float) -> tuple[float, float]:
        return _pgrad2(a, b, self.p)


class LInf(FrozenValue, NormedSpace):
    """R^dim with the max norm (not smooth at coordinate ties)."""

    _fields, _tag, _type = ("dim",), "linf", "linf"
    _exact_ties = True

    def __init__(self, dim: int):
        object.__setattr__(self, "dim", _check_dim(dim))

    def _orth(self, xa, rng):
        # A random vector with every tied max coordinate zeroed.
        m = max(map(abs, xa.tolist()))
        y = rng.standard_normal(self.dim)
        y[np.abs(xa) >= (1.0 - 10.0 * TAU_TIE) * m] = 0.0
        return y

    def _orth_rows(self, X, V):
        A = np.abs(X)
        return np.where(A >= (1.0 - 10.0 * TAU_TIE) * A.max(axis=1, keepdims=True), 0.0, V)

    def _tie_probe(self):
        e = np.eye(self.dim)  # the kink along e0 - e1, none at dim 1
        return np.ones(self.dim), list((e[:1] - e[1:2]) / math.sqrt(2.0))

    def _norm(self, arr):
        return max(map(abs, arr.tolist()))

    def _norm_of(self, coords):
        return max(map(abs, coords))

    def _support(self, arr):
        # One vertex sign(x_i) e_i per coordinate attaining the max,
        # within the tie tolerance.
        coords = arr.tolist()
        m = max(map(abs, coords))
        out = []
        for i, c in enumerate(coords):
            if abs(c) >= (1.0 - TAU_TIE) * m:
                f = np.zeros(self.dim)
                f[i] = 1.0 if c > 0 else -1.0
                out.append(f)
        return out

    def _norms(self, X):
        return np.maximum.reduce(np.abs(X), axis=1)

    def _bounds(self, X, Y):
        # Masked min/max of sign(x_i) y_i over the tied coordinates.
        A = np.abs(X)
        tied = A >= (1.0 - TAU_TIE) * A.max(axis=1, keepdims=True)
        vals = np.where(X > 0.0, Y, -Y)
        return (np.where(tied, vals, np.inf).min(axis=1),
                np.where(tied, vals, -np.inf).max(axis=1))


class DayJames(FrozenValue, NormedSpace):
    """The Day-James plane: p-norm where a*b >= 0, q-norm where a*b <= 0.

    Smooth for p, q > 1 (both quadrant gradients coincide on the axes).
    The plane is a Radon plane exactly when 1/p + 1/q = 1, recorded by the
    derived ``radon_candidate`` flag.
    """

    _fields, _tag, _type = ("p", "q"), "dayjames", "day_james"
    _smooth_plane = True

    def __init__(self, p: float, q: float):
        object.__setattr__(self, "p", _check_exponent(p))
        object.__setattr__(self, "q", _check_exponent(q))
        object.__setattr__(self, "dim", 2)

    @property
    def radon_candidate(self) -> bool:
        return abs(1.0 / self.p + 1.0 / self.q - 1.0) <= 1e-12

    def _exponent_at(self, a: float, b: float) -> float:
        # Same-sign test on Python floats (a*b can underflow to -0.0); on the
        # axes both formulas agree so the choice is observationally irrelevant.
        return self.p if (a < 0.0) == (b < 0.0) else self.q

    def _norm(self, arr):
        a, b = arr.tolist()
        return self._norm2(a, b)

    def _norm_of(self, coords):
        return self._norm2(*coords)

    def _support(self, arr):
        a, b = arr.tolist()
        if a == 0.0 or b == 0.0:
            fp = _pgrad2(a, b, self.p)
            fq = _pgrad2(a, b, self.q)
            gap = max(abs(fp[0] - fq[0]), abs(fp[1] - fq[1]))
            if not gap <= TAU_SUP:
                raise NotSmooth(f"quadrant gradients disagree on axis: {gap}")
            return [np.array(fp)]
        return [np.array(_pgrad2(a, b, self._exponent_at(a, b)))]

    def _exponents(self, X: np.ndarray) -> np.ndarray:
        # Per-row exponents, by _exponent_at's exact sign test.
        return np.where((X[:, 0] < 0.0) == (X[:, 1] < 0.0), self.p, self.q)

    def _norms(self, X):
        return _pnorms(X, self._exponents(X))

    def _bounds(self, X, Y):
        # Axis rows take the p-gradient without _support's agreement check:
        # there both exponents give (+-1, 0) or (0, +-1) exactly.
        return _pbounds(X, Y, self._exponents(X)[:, None])

    def _line(self, xa, ya):
        return _line2(xa, ya, self.p, self.q)

    def _norm2(self, a: float, b: float) -> float:
        return _pnorm2(a, b, self._exponent_at(a, b))

    def _grad2(self, a: float, b: float) -> tuple[float, float]:
        return _pgrad2(a, b, self._exponent_at(a, b))


class InfSum(FrozenValue, NormedSpace):
    """Finite l-infinity direct sum: ||(x_1, ..., x_k)|| = max_i ||x_i||."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[NormedSpace, ...]):
        parts = tuple(parts)
        if len(parts) < 2:
            raise EmptySum(f"a max-sum needs at least 2 parts, got {len(parts)}")
        for part in parts:
            if not isinstance(part, NormedSpace):
                raise TypeError(f"sum part is not a NormedSpace: {part!r}")
        object.__setattr__(self, "parts", parts)
        offsets = [0]
        for part in parts:
            offsets.append(offsets[-1] + part.dim)
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "dim", offsets[-1])
        # split's index of each part's columns, for a vector or rows alike.
        object.__setattr__(self, "_columns", tuple(
            (..., slice(a, b)) for a, b in zip(offsets, offsets[1:])))

    def split(self, arr: np.ndarray) -> list[np.ndarray]:
        """Views of the part restrictions of a checked vector (or of the
        rows of an (n, dim) array)."""
        return [arr[c] for c in self._columns]

    def _orth(self, xa, rng):
        # The partner inside the first norm-attaining part, zero elsewhere,
        # so the choice is immune to part ties.
        norms = self._part_norms(xa.tolist())
        k = norms.index(max(norms))
        out = np.zeros(self.dim)
        out[self._columns[k]] = self.parts[k]._orth(xa[self._columns[k]], rng)
        return out

    def _orth_rows(self, X, V):
        # Each row's partner in its first part of largest row norm.
        xs, out = self.split(X), np.zeros_like(X)
        top = np.argmax([part._norms(x) for part, x in zip(self.parts, xs)], axis=0)
        for k, (part, x, v, o) in enumerate(zip(self.parts, xs, self.split(V), self.split(out))):
            rows = top == k
            o[rows] = part._orth_rows(x[rows], v[rows])
        return out

    def _tie_probe(self):
        units = [np.ones(p.dim) / p._norm(np.ones(p.dim)) for p in self.parts]
        d = np.zeros(self.dim)
        first, second = self.split(d)[:2]
        first[:] = units[0] / math.sqrt(2.0)
        second[:] = -units[1] / math.sqrt(2.0)
        return np.concatenate(units), [d]

    def _part_norms(self, coords: list) -> list[float]:
        off = self._offsets
        return [part._norm_of(coords[off[k] : off[k + 1]]) for k, part in enumerate(self.parts)]

    def _norm(self, arr):
        return max(self._part_norms(arr.tolist()))

    def _norm_of(self, coords):
        return max(self._part_norms(coords))

    def _support(self, arr):
        # Embed the extreme functionals of every norm-attaining part
        # (within the tie tolerance) at zero elsewhere.
        coords, off = arr.tolist(), self._offsets
        norms = self._part_norms(coords)
        total = max(norms)
        if total == math.inf:
            # Finite parts whose norm overflows.  Functionals do not change
            # with the scale of x: take them at x scaled by a power of two.
            return self._support(np.ldexp(arr, -top_exponent(coords)))
        out = []
        for k, part in enumerate(self.parts):
            if norms[k] >= (1.0 - TAU_TIE) * total:
                for f in part._support(arr[off[k] : off[k + 1]]):
                    g = np.zeros(self.dim)
                    g[off[k] : off[k + 1]] = f
                    out.append(g)
        return out

    def _norms(self, X):
        return reduce(np.maximum, [part._norms(x) for part, x in zip(self.parts, self.split(X))])

    def _bounds(self, X, Y):
        # Recurse into each part on the rows where it attains the max.
        xs, ys = self.split(X), self.split(Y)
        with np.errstate(over="ignore"):
            norms = [part._norms(x) for part, x in zip(self.parts, xs)]
        total = reduce(np.maximum, norms)
        big = total == math.inf
        if big.any():  # as in _support
            X = X.copy()
            X[big] = np.ldexp(X[big], -top_exponents(X[big])[:, None])
            return self._bounds(X, Y)
        mn, mx = np.full(len(X), np.inf), np.full(len(X), -np.inf)
        for part, x, y, nk in zip(self.parts, xs, ys, norms):
            rows = nk >= (1.0 - TAU_TIE) * total
            lo, hi = part._bounds(x[rows], y[rows])
            mn[rows] = np.minimum(mn[rows], lo)
            mx[rows] = np.maximum(mx[rows], hi)
        return mn, mx


def validate_space(descriptor) -> NormedSpace:
    """Build a checked space from a raw JSON-style description.

    Descriptions are dicts: {"type": "lp", "dim": 2, "p": 3.0},
    {"type": "linf", "dim": 4}, {"type": "day_james", "p": 3.0, "q": 1.5},
    or {"type": "inf_sum", "parts": [...]} recursively.
    """
    if not isinstance(descriptor, dict):
        raise ParseError(f"space description must be a dict, got {type(descriptor).__name__}")
    kind = descriptor.get("type")
    if kind == "inf_sum":
        parts = descriptor.get("parts")
        if not isinstance(parts, (list, tuple)):
            raise ParseError("inf_sum requires a list of parts")
        return InfSum(tuple(validate_space(p) for p in parts))
    for cls in _LEAVES:  # compared, not hashed: a JSON type may be a list
        if kind == cls._type:
            return cls(*(_field(descriptor, key) for key in cls._fields))
    raise ParseError(f"unknown space type: {kind!r}")


def _field(d: dict, key: str):
    """Field key of a JSON description, read by its reader in _READERS."""
    if key not in d:
        raise ParseError(f"missing field {key!r}")
    return _READERS[key](d[key], f"field {key}")


def space_to_dict(space: NormedSpace) -> dict:
    """JSON-ready description; inverse of validate_space."""
    if isinstance(space, InfSum):
        return {"type": "inf_sum", "parts": [space_to_dict(p) for p in space.parts]}
    if not isinstance(space, _LEAVES):
        raise TypeError(f"unknown space: {space!r}")
    return {"type": space._type, **dict(zip(space._fields, space._values()))}


def _fmt_number(x) -> str:
    s = repr(x if isinstance(x, int) else float(x))
    return s[:-2] if s.endswith(".0") else s


def format_space(space: NormedSpace) -> str:
    """Compact string form: lp:2:3, linf:4, dayjames:3:1.5, sum(a,b)."""
    if isinstance(space, InfSum):
        return "sum(" + ",".join(format_space(p) for p in space.parts) + ")"
    if not isinstance(space, _LEAVES):
        raise TypeError(f"unknown space: {space!r}")
    return ":".join([space._tag, *map(_fmt_number, space._values())])


def space_label(space: NormedSpace) -> str:
    """format_space's descriptor, or the repr of a space outside the grammars."""
    try:
        return format_space(space)
    except TypeError:
        return repr(space)


def parse_space(text: str) -> NormedSpace:
    """Parse the compact string form; inverse of format_space."""
    s = text.strip()
    if not s:
        raise ParseError("empty space descriptor")
    if s.startswith("sum("):
        if not s.endswith(")"):
            raise ParseError(f"unbalanced parentheses at position {len(s)}: {text!r}")
        inner = s[4:-1]
        pieces, depth, start = [], 0, 0
        for i, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError(f"unbalanced parentheses at position {i + 4}: {text!r}")
            elif ch == "," and depth == 0:
                pieces.append(inner[start:i])
                start = i + 1
        if depth != 0:
            raise ParseError(f"unbalanced parentheses in {text!r}")
        pieces.append(inner[start:])
        parts = []
        for piece in pieces:
            try:
                parts.append(parse_space(piece))
            except ParseError as exc:
                raise ParseError(f"{exc}, in {text!r}") from exc
        return InfSum(tuple(parts))
    head, *tokens = s.split(":")
    for cls in _LEAVES:
        if head == cls._tag and len(tokens) == len(cls._fields):
            return cls(*(_READERS[key](t, text) for key, t in zip(cls._fields, tokens)))
    raise ParseError(f"cannot parse space descriptor {text!r}")


# The number readers of both grammars: a token of the compact form or a value
# of the JSON form; context names where it stands in error messages.
def _parse_int(token, context: str) -> int:
    if isinstance(token, bool) or (isinstance(token, float) and not token.is_integer()):
        raise BadDimension(f"expected an integer, got {token!r} in {context!r}")
    try:
        return int(token)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"expected an integer, got {token!r} in {context!r}") from exc


def _parse_float(token, context: str) -> float:
    try:
        return float(token)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"expected a number, got {token!r} in {context!r}") from exc


# The leaf families of both grammars, and the reader of each of their fields.
_LEAVES = (Lp, LInf, DayJames)
_READERS = {"dim": _parse_int, "p": _parse_float, "q": _parse_float}


def load_space_file(path) -> NormedSpace:
    """Read a JSON space description from a file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, too deep
            raise ParseError(f"cannot read {path} as JSON: {exc}") from exc
    return validate_space(data)


def unit_vector_at_angle(plane: NormedSpace, theta: float) -> np.ndarray:
    """(cos t, sin t) rescaled to norm one in a two-dimensional space."""
    if plane.dim != 2:
        raise NotAPlane(f"expected a plane, got dimension {plane.dim}")
    if not math.isfinite(theta):
        raise NonFiniteInput(f"angle must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    n = plane._norm(np.array([c, s]))
    return np.array([c / n, s / n])


def unit2(plane: NormedSpace, theta: float) -> tuple[float, float]:
    """unit_vector_at_angle's floats for a smooth plane and a finite theta."""
    c, s = math.cos(theta), math.sin(theta)
    n = plane._norm2(c, s)
    return c / n, s / n


def perp2(plane: NormedSpace, a: float, b: float) -> tuple[float, float]:
    """The Euclidean perp (-f_b, f_a) of the norming functional f of a smooth
    plane (_smooth_plane) at (a, b) != 0, on Python floats.  f annuls it
    exactly, as fa * -fb + fb * fa vanishes in floating point, so (a, b) is
    Birkhoff-James orthogonal to it; on an axis f is (+-1, 0) or (0, +-1)
    exactly.  A plane's functional leaves this module only through here."""
    fa, fb = plane._grad2(a, b)
    return -fb, fa


def partner2(plane: NormedSpace, theta: float):
    """The pairing row of a smooth plane at a finite theta: y = unit2(theta),
    its partner theta* = pairing_angle over [theta, theta + pi] of the
    norming functional f at y, y* = unit2(theta*) and the forward residual
    |f(y*)|.  f(y) = 1 > 0 > f(y(theta + pi)), so the bracket holds the root."""
    y = unit2(plane, theta)
    fa, fb = plane._grad2(*y)
    theta_star = pairing_angle(fa, fb, theta, theta + math.pi)
    y_star = unit2(plane, theta_star)
    return y, theta_star, y_star, abs(fa * y_star[0] + fb * y_star[1])


def pairing_angle(fa: float, fb: float, lo: float, hi: float) -> float:
    """Root in [lo, hi] of the pairing g(t) = fa cos t + fb sin t of a norming
    functional (fa, fb): the angle whose direction the functional annuls.

    g(t) = R cos(t - phi) with phi = atan2(fb, fa) falls through zero at
    phi + pi/2.  That root is moved by a multiple of 2 pi to within pi of the
    bracket's midpoint and clamped to [lo, hi], so a bracket that excludes it
    gives its nearer end.  A NaN or infinite argument raises NonFiniteInput.
    """
    if not all(map(math.isfinite, (fa, fb, lo, hi))):
        raise NonFiniteInput(f"pairing arguments must be finite, got {(fa, fb, lo, hi)}")
    root = math.atan2(fb, fa) + 0.5 * math.pi
    root += 2.0 * math.pi * round((0.5 * (lo + hi) - root) / (2.0 * math.pi))
    return min(max(root, lo), hi)
