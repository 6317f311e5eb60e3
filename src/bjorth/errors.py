"""Exception types shared across the package, and the count check."""

import operator


class BjorthError(Exception):
    """Base class for every package-specific error."""


class InvalidExponent(BjorthError):
    """Norm exponent is not a finite real greater than 1."""


class BadDimension(BjorthError):
    """Declared ambient dimension is not a positive integer."""


class EmptySum(BjorthError):
    """A max-sum space, or a componentwise map between two, needs at least
    two parts."""


class DimensionMismatch(BjorthError):
    """Vector or functional length does not match the ambient dimension."""


class NonFiniteInput(BjorthError):
    """A vector coordinate or a decision margin is NaN or infinite."""


class InvalidCount(BjorthError, ValueError):
    """A count or seed is not an integer, or is below its minimum (a seed's is 0)."""


class InvalidMargin(BjorthError, ValueError):
    """A decision margin is negative."""


class ZeroVector(BjorthError):
    """Operation requires a nonzero vector."""


class ZeroDirection(BjorthError):
    """Line minimization requires a nonzero direction."""


class NotAPlane(BjorthError):
    """Operation requires a two-dimensional space."""


class NotSmooth(BjorthError):
    """Support set is not a singleton where a unique functional is required."""


class NotRadonPlane(BjorthError):
    """Construction requires a smooth Radon plane."""


class NoBracket(BjorthError):
    """Root bracketing failed; the smooth-Radon-plane premise is violated."""


class MonotonicityViolation(BjorthError):
    """Tabulated pairing angles are not strictly increasing."""


class NonConvergence(BjorthError):
    """A solved pairing angle misses its orthogonality residual tolerance."""


class DegenerateSection(BjorthError):
    """Section basis is (numerically) linearly dependent."""


class ParseError(BjorthError):
    """Malformed space descriptor."""


def check_count(value, name: str, floor: int = 1) -> int:
    """A count (with floor 0, a seed) as a Python int: an integer, not bool, >= floor;
    else InvalidCount, chained from operator.index's TypeError on a non-integer."""
    message = f"{name} must be >= {floor} (an integer, not a bool), got {value!r}"
    try:
        count = operator.index(value)
    except TypeError as exc:
        raise InvalidCount(message) from exc
    if isinstance(value, bool) or count < floor:
        raise InvalidCount(message)
    return count
