"""Quaternion arithmetic over four real coefficients w + x i + y j + z k.

Values are immutable; every operation returns a fresh Quaternion.  The
multiplication follows the Hamilton rules ij = -ji = k, jk = -kj = i,
ki = -ik = j, so products do not commute and all formulas in this
package keep left and right factors in the written order.
"""

from __future__ import annotations

import math
import re as _re
from typing import NamedTuple

from .errors import DivisionByZero, NotOnSphere, RealInput

DEFAULT_ATOL = 1e-9
DEFAULT_RTOL = 1e-9

_current = {"atol": DEFAULT_ATOL, "rtol": DEFAULT_RTOL}


def set_tolerance(atol: float | None = None, rtol: float | None = None) -> None:
    """Override the package-wide comparison tolerances.

    None leaves the corresponding value unchanged.  Closeness everywhere
    means |a - b| <= atol + rtol * max(|a|, |b|).
    """
    if atol is not None:
        _current["atol"] = float(atol)
    if rtol is not None:
        _current["rtol"] = float(rtol)


def get_tolerance() -> tuple[float, float]:
    return _current["atol"], _current["rtol"]


def _tols(tol: float | None) -> tuple[float, float]:
    if tol is None:
        return _current["atol"], _current["rtol"]
    return float(tol), float(tol)


def isclose(a: float, b: float, tol: float | None = None) -> bool:
    """Combined absolute/relative closeness for real scalars."""
    atol, rtol = _tols(tol)
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_QUAT_RE = _re.compile(rf"\s*({_NUM})\s*({_NUM})i\s*({_NUM})j\s*({_NUM})k\s*")


class Quaternion(NamedTuple):
    w: float
    x: float
    y: float
    z: float

    # -- structure ------------------------------------------------------

    def conj(self) -> "Quaternion":
        """Conjugate: the imaginary part changes sign."""
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        w, x, y, z = self
        return w * w + x * x + y * y + z * z

    def __abs__(self) -> float:
        # hypot scales internally, so |q| is finite whenever it fits a float
        w, x, y, z = self
        return math.hypot(w, x, y, z)

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x, self.y, self.z)

    def im_norm(self) -> float:
        x, y, z = self.x, self.y, self.z
        return math.sqrt(x * x + y * y + z * z)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w + other.w, self.x + other.x,
                              self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w + other, self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(self.w - other.w, self.x - other.x,
                              self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return Quaternion(self.w - other, self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __pos__(self) -> "Quaternion":
        return self

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self
            w2, x2, y2, z2 = other
            return Quaternion(
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    # reals are central, so scalar * q equals q * scalar; quaternion * q
    # never reaches __rmul__ because __mul__ above handles it
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        if isinstance(other, Quaternion):
            raise TypeError(
                "quaternion division is ambiguous; write p * q.inverse() "
                "or q.inverse() * p explicitly")
        return NotImplemented

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conj(q) / |q|^2."""
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise DivisionByZero("cannot invert the zero quaternion")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def unit(self) -> "Quaternion":
        n = abs(self)
        if n == 0.0:
            raise DivisionByZero("cannot normalize the zero quaternion")
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)

    # -- comparison and formats ----------------------------------------

    def close_to(self, other: "Quaternion", tol: float | None = None) -> bool:
        atol, rtol = _tols(tol)
        return abs(self - other) <= atol + rtol * max(abs(self), abs(other))

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

    @classmethod
    def from_string(cls, text: str) -> "Quaternion":
        m = _QUAT_RE.fullmatch(text)
        if m is None:
            raise ValueError(f"not a quaternion literal: {text!r}")
        return cls(*(float(g) for g in m.groups()))


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def imaginary_unit(x: float, y: float, z: float,
                   tol: float | None = None) -> Quaternion:
    """A point of the sphere S of purely imaginary unit quaternions.

    The coordinates must already be unit length within tolerance;
    the result is renormalized exactly.
    """
    n = math.sqrt(x * x + y * y + z * z)
    if not isclose(n, 1.0, tol):
        raise ValueError(f"({x}, {y}, {z}) is not unit length")
    return Quaternion(0.0, x / n, y / n, z / n)


def slice_decompose(q: Quaternion,
                    tol: float | None = None) -> tuple[float, float, Quaternion]:
    """Write q = x + y*I with x real, y > 0 and I a purely imaginary unit.

    The decomposition is unique for non-real q; real input has no
    preferred I and raises RealInput.
    """
    atol, _ = _tols(tol)
    n = q.im_norm()
    if n <= atol * (1.0 + abs(q)):
        raise RealInput(f"{q} is real within tolerance; no unique slice")
    return q.w, n, Quaternion(0.0, q.x / n, q.y / n, q.z / n)


def on_sphere(p: Quaternion, x: float, y: float,
              tol: float | None = None) -> bool:
    """Whether p lies on x + yS, the sphere of center x and radius |y|."""
    return isclose(p.w, x, tol) and isclose(p.im_norm(), abs(y), tol)


def conjugate_sphere_check(q: Quaternion, x: float, y: float, p: Quaternion,
                           tol: float | None = None) -> bool:
    """Whether q p q^-1 stays on the sphere x + yS that contains p.

    Conjugation fixes the real part and the imaginary norm, so this is
    always true; the function exists as a checkable witness of that fact.
    """
    if q.norm_sq() == 0.0:
        raise DivisionByZero("conjugation by zero is undefined")
    if not on_sphere(p, x, y, tol):
        raise NotOnSphere(f"{p} is not on the sphere {x} + {y}S")
    image = q * p * q.inverse()
    return on_sphere(image, x, y, tol)
