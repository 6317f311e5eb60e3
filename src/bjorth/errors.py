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
    """A sample, pair-sample or grid count is below its minimum, or a seed below 0."""


class AngleOutOfRange(BjorthError, ValueError):
    """A finite angle lies outside the range a function accepts."""


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


class GridTooCoarse(BjorthError):
    """Angle grid is below the minimum resolution."""


class MonotonicityViolation(BjorthError):
    """Tabulated pairing angles are not strictly increasing."""


class NonConvergence(BjorthError):
    """A solved pairing angle misses its orthogonality residual tolerance."""


class DegenerateSection(BjorthError):
    """Section basis is (numerically) linearly dependent."""


class ParseError(BjorthError):
    """Malformed space descriptor."""


def check_count(value, name: str, floor: int = 1) -> int:
    """A count (with floor 0, a seed) as a Python int: an integer, not bool, >= floor."""
    if isinstance(value, bool) or (count := operator.index(value)) < floor:
        raise InvalidCount(f"{name} must be >= {floor} (an integer, not a bool), got {value!r}")
    return count
