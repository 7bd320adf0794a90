"""Quaternion arithmetic over four real coefficients w + x i + y j + z k.

Values are immutable; every operation returns a fresh Quaternion.  The
multiplication follows the Hamilton rules ij = -ji = k, jk = -kj = i,
ki = -ik = j, so products do not commute and all formulas in this
package keep left and right factors in the written order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DivisionByZero, NonFiniteResult

# the comparison tolerance t of every predicate called with tol=None; a
# predicate's tol= replaces it for that call.  Each threshold is bound(m) = t m
TOL = 1e-9


def _tol(tol: float | None) -> float:
    return TOL if tol is None else float(tol)


def bound(m: float, tol: float | None = None) -> float:
    """The threshold t m of a residual whose terms have size m; a comparison
    against a unit reference counts that 1 as a term.  -1.0, which no
    residual passes, where t m is not finite."""
    b = _tol(tol) * m
    return b if b < math.inf else -1.0


def negligible(r: float, m: float, tol: float | None = None) -> bool:
    """Whether the residual r is negligible against terms of size m."""
    return r <= bound(m, tol)


def isclose(a: float, b: float, tol: float | None = None) -> bool:
    """Relative closeness for real scalars: m = max(|a|, |b|)."""
    return abs(a - b) <= bound(max(abs(a), abs(b)), tol)


def coincident(p, q, tol: float | None = None) -> bool:
    """Whether the points p, q coincide: |p - q| <= bound(max(|p|, |q|)),
    relative so that a dilation never changes it.  So where a modulus
    overflows, the pair is decided at half scale."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    r = max(math.hypot(pw, px, py, pz), math.hypot(qw, qx, qy, qz))
    if r == math.inf and is_finite(p) and is_finite(q):
        return coincident((0.5 * pw, 0.5 * px, 0.5 * py, 0.5 * pz),
                          (0.5 * qw, 0.5 * qx, 0.5 * qy, 0.5 * qz), tol)
    b = (TOL if tol is None else float(tol)) * r  # bound, inline on the geometry path
    return b < math.inf and math.hypot(pw - qw, px - qx, py - qy, pz - qz) <= b


def is_finite(p) -> bool:
    """The finite-point rule: whether every component of the point p is finite."""
    return all(map(math.isfinite, p))


# squared norms outside [2^-900, 2^900) have lost digits or come close to overflow
N2_TINY, N2_HUGE = 2.0 ** -900, 2.0 ** 900


# the operators build results as namedtuple's _make does, skipping the
# Python-level __new__ that NamedTuple generates
_new = tuple.__new__


class Quaternion(NamedTuple):
    w: float
    x: float
    y: float
    z: float

    # -- structure ------------------------------------------------------

    def conj(self) -> "Quaternion":
        """Conjugate: the imaginary part changes sign."""
        return _new(Quaternion, (self.w, -self.x, -self.y, -self.z))

    def norm_sq(self) -> float:
        w, x, y, z = self
        return w * w + x * x + y * y + z * z

    def __abs__(self) -> float:
        # hypot scales internally, so |q| is finite whenever it fits a float
        w, x, y, z = self
        return math.hypot(w, x, y, z)

    def im_norm(self) -> float:
        # hypot, as in __abs__: no underflow or overflow of the squares
        return math.hypot(self.x, self.y, self.z)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self
            w2, x2, y2, z2 = other
            return _new(Quaternion, (w1 + w2, x1 + x2, y1 + y2, z1 + z2))
        if isinstance(other, (int, float)):
            return _new(Quaternion, (self.w + other, self.x, self.y, self.z))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self
            w2, x2, y2, z2 = other
            return _new(Quaternion, (w1 - w2, x1 - x2, y1 - y2, z1 - z2))
        if isinstance(other, (int, float)):
            return _new(Quaternion, (self.w - other, self.x, self.y, self.z))
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return _new(Quaternion, (-self.w, -self.x, -self.y, -self.z))

    def __pos__(self) -> "Quaternion":
        return self

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self
            w2, x2, y2, z2 = other
            return _new(Quaternion, (
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2))
        if isinstance(other, (int, float)):
            w, x, y, z = self
            return _new(Quaternion, (w * other, x * other, y * other, z * other))
        return NotImplemented

    # reals are central, so scalar * q equals q * scalar; quaternion * q
    # never reaches __rmul__ because __mul__ above handles it
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            w, x, y, z = self
            return _new(Quaternion, (w / other, x / other, y / other, z / other))
        if isinstance(other, Quaternion):
            raise TypeError(
                "quaternion division is ambiguous; write p * q.inverse() "
                "or q.inverse() * p explicitly")
        return NotImplemented

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2.

        Where |q|^2 leaves [N2_TINY, N2_HUGE), q is first scaled exactly by
        a power of two, so 1/q keeps full precision wherever it fits a float.
        """
        w, x, y, z = self
        n2 = w * w + x * x + y * y + z * z
        if not N2_TINY <= n2 < N2_HUGE:
            if not any(self):
                raise DivisionByZero("cannot invert the zero quaternion")
            if is_finite(self):
                e = math.frexp(max(map(abs, self)))[1]
                try:
                    return _ldexp_q(_ldexp_q(self, -e).inverse(), -e)
                except OverflowError:
                    raise NonFiniteResult(f"1/({self}) does not fit a float") from None
        return _new(Quaternion, (w / n2, -x / n2, -y / n2, -z / n2))

    def unit(self) -> "Quaternion":
        n = abs(self)
        if n == 0.0:
            raise DivisionByZero("cannot normalize the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    # -- comparison and formats ----------------------------------------

    close_to = coincident

    def to_json(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, data) -> "Quaternion":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("quaternion JSON must be a 4-number array")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in data):
            raise ValueError(f"quaternion entries must be numbers, got {data!r}")
        return cls(*(float(v) for v in data))

    def __str__(self) -> str:
        return f"{self.w:g}{self.x:+g}i{self.y:+g}j{self.z:+g}k"


def _ldexp_q(q: Quaternion, e: int) -> Quaternion:
    """q * 2^e, scaled per component, so exact unless it leaves float range."""
    return Quaternion(*(math.ldexp(x, e) for x in q))


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
