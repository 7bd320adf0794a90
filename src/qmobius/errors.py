"""Exception types raised by the geometry routines.

Every domain failure derives from GeometryError so callers (and the CLI)
can distinguish bad input from genuine bugs.
"""


class GeometryError(Exception):
    """Base class for all domain errors in this package."""


class DivisionByZero(GeometryError, ZeroDivisionError):
    """Inverse of the zero quaternion was requested."""


class Singular(GeometryError):
    """Matrix has (numerically) vanishing Dieudonne determinant."""


class BothZero(GeometryError):
    """The second row of the coefficient matrix vanishes; the map is undefined."""


class CoincidentPoints(GeometryError):
    """Input points coincide where distinct points are required."""


class NotSp11(GeometryError):
    """The matrix does not preserve the indefinite form diag(1, -1)."""


class ZeroD(GeometryError):
    """The lower-right entry must be nonzero for this construction."""


class NonImaginaryShift(GeometryError):
    """The translation part b d^-1 must be purely imaginary."""


class ConstraintViolation(GeometryError):
    """Parameters violate the membership constraints of the half-space group."""


class PoleInput(GeometryError):
    """The differential was requested at (or too close to) a pole of the map."""


class DegenerateResult(GeometryError):
    """All coefficients of the transformed quadric vanish."""


class OutOfDomain(GeometryError):
    """Point lies outside the open unit ball / open half-space."""


class TooFewSamples(GeometryError):
    """A sampled path, or a scan along each axis, needs at least two points."""


class NonFiniteResult(GeometryError):
    """A result overflowed the float range or came out NaN."""
