"""Quaternionic cross-ratio, concyclicity, and the preserved quadrics.

The cross-ratio of four quaternions is

    CR(q1, q2, q3, q4) = (q1 - q3)(q1 - q4)^-1 (q2 - q4)(q2 - q3)^-1

with the factor order fixed; it is not invariant under Moebius maps but
transforms by conjugation, so its real part and imaginary norm are.
"""

from __future__ import annotations

from math import hypot, inf, nan
from typing import NamedTuple

from .errors import CoincidentPoints, DegenerateResult, NonFiniteResult
from .flt import FLT, INFINITY, ExtQuaternion, generator_inverse, generator_matrix
from .mat2h import Mat2H
from .quat import (ONE, TOL, Quaternion, _new, bound, coincident, is_finite, negligible,
                   times_inverse)


def cross_ratio(q1: ExtQuaternion, q2: ExtQuaternion, q3: ExtQuaternion,
                q4: ExtQuaternion, tol: float | None = None) -> Quaternion:
    """Cross-ratio on H u {inf}; factors containing inf are replaced by 1.

    The points must be pairwise distinct with at most one at infinity.
    The one permitted coincidence is q1 = q2 (exact), which returns 1 so
    that distance formulas degrade gracefully.  A point with an inf or nan
    component, which coincides with nothing, raises NonFiniteResult.
    """
    pts = (q1, q2, q3, q4)
    n_inf = (q1 is INFINITY) + (q2 is INFINITY) + (q3 is INFINITY) + (q4 is INFINITY)
    if n_inf > 1:
        raise CoincidentPoints("at most one point may be infinite")
    if q1 is not INFINITY and q2 is not INFINITY and tuple(q1) == tuple(q2) and hypot(*q1) < inf:
        return ONE
    # a point at infinity enters the coincidence checks as NaNs, which pass no gap test
    (w1, x1, y1, z1), (w2, x2, y2, z2), (w3, x3, y3, z3), (w4, x4, y4, z4) = (
        [(nan,) * 4 if p is INFINITY else p for p in pts] if n_inf else pts)
    aw, ax, ay, az = w1 - w3, x1 - x3, y1 - y3, z1 - z3  # d13
    bw, bx, by, bz = w1 - w4, x1 - x4, y1 - y4, z1 - z4  # d14
    cw, cx, cy, cz = w2 - w3, x2 - x3, y2 - y3, z2 - z3  # d23
    dw, dx, dy, dz = w2 - w4, x2 - x4, y2 - y4, z2 - z4  # d24
    m1, m2 = hypot(w1, x1, y1, z1), hypot(w2, x2, y2, z2)
    m3, m4 = hypot(w3, x3, y3, z3), hypot(w4, x4, y4, z4)
    g13, g14 = hypot(aw, ax, ay, az), hypot(bw, bx, by, bz)
    g23, g24 = hypot(cw, cx, cy, cz), hypot(dw, dx, dy, dz)
    g34 = hypot(w3 - w4, x3 - x4, y3 - y4, z3 - z4)
    if not m1 + m2 + m3 + m4 + g13 + g14 + g23 + g24 + g34 < inf:
        # a point at infinity, a non-finite component or a length that overflowed
        if not all(is_finite(p) for p in pts if p is not INFINITY):
            raise NonFiniteResult("a point with an inf or nan component has no cross-ratio")
        if inf in (m1, m2, m3, m4, g13, g14, g23, g24, g34):
            # a dilation changes neither the cross-ratio nor a coincidence:
            # where a length overflows, both are taken at half scale
            return cross_ratio(*(p if p is INFINITY else p * 0.5 for p in pts), tol)
    # coincident's rule, on moduli taken once; max(a, b) is a unless b > a
    t = TOL if tol is None else float(tol)
    pair = ("q1 and q3" if g13 <= t * (m3 if m3 > m1 else m1) else
            "q1 and q4" if g14 <= t * (m4 if m4 > m1 else m1) else
            "q2 and q3" if g23 <= t * (m3 if m3 > m2 else m2) else
            "q2 and q4" if g24 <= t * (m4 if m4 > m2 else m2) else
            "q3 and q4" if g34 <= t * (m4 if m4 > m3 else m3) else None)
    if pair:
        raise CoincidentPoints(f"{pair} coincide")
    if n_inf:
        result = ONE
        for i, j, invert in ((0, 2, False), (0, 3, True), (1, 3, False), (1, 2, True)):
            if pts[i] is not INFINITY and pts[j] is not INFINITY:
                result = result * ((pts[i] - pts[j]).inverse() if invert else pts[i] - pts[j])
        return result
    # d13 d14^-1 d24 d23^-1 with the Quaternion operators' operations in their
    # order, from ONE * d13 on (its 0.0 * x terms can flip a zero's sign; 1.0 * x
    # is x), each right division by times_inverse: bit-identical to that product
    aw, ax, ay, az = times_inverse(
        aw - 0.0 * ax - 0.0 * ay - 0.0 * az, ax + 0.0 * aw + 0.0 * az - 0.0 * ay,
        ay - 0.0 * az + 0.0 * aw + 0.0 * ax, az + 0.0 * ay - 0.0 * ax + 0.0 * aw,
        bw, bx, by, bz)
    return _new(Quaternion, times_inverse(
        aw * dw - ax * dx - ay * dy - az * dz, aw * dx + ax * dw + ay * dz - az * dy,
        aw * dy - ax * dz + ay * dw + az * dx, aw * dz + ax * dy - ay * dx + az * dw,
        cw, cx, cy, cz))


def is_concyclic(q1: ExtQuaternion, q2: ExtQuaternion, q3: ExtQuaternion,
                 q4: ExtQuaternion, tol: float | None = None) -> bool:
    """Whether the four (distinct) points lie on one circle or line.

    This holds exactly when the cross-ratio, dimensionless, is real (m = 1 + |cr|).
    Unlike cross_ratio, q1 = q2 raises CoincidentPoints instead of giving 1.
    """
    if q1 is not INFINITY and q2 is not INFINITY and coincident(q1, q2, tol):
        raise CoincidentPoints("q1 and q2 coincide")
    w, x, y, z = cross_ratio(q1, q2, q3, q4, tol)
    return hypot(x, y, z) <= bound(1.0 + hypot(w, x, y, z), tol)


class _Coefficients(NamedTuple):
    alpha: float
    beta: Quaternion
    gamma: float


class QuadricF3(_Coefficients):
    """The zero set of alpha |q|^2 + 2 Re(beta q) + gamma with alpha, gamma
    real: a sphere or 3-plane of H, the family preserved by Moebius maps.

    Coefficients are stored unnormalized; proportional triples describe
    the same quadric.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: Quaternion, gamma: float):
        if alpha == 0.0 and gamma == 0.0 and beta.norm_sq() == 0.0:
            raise ValueError("quadric coefficients must not all vanish")
        return super().__new__(cls, alpha, beta, gamma)

    def evaluate(self, q: Quaternion) -> float:
        return self.alpha * q.norm_sq() + 2.0 * (self.beta * q).w + self.gamma

    def coefficient_scale(self) -> float:
        return max(abs(self.alpha), abs(self.beta), abs(self.gamma))

    def proportional_to(self, other: "QuadricF3", tol: float | None = None) -> bool:
        """Whether each 2x2 minor of the coefficient rows is negligible (m = su sv)."""
        u = (self.alpha, *self.beta, self.gamma)
        v = (other.alpha, *other.beta, other.gamma)
        thr = bound(max(map(abs, u)) * max(map(abs, v)), tol)
        return all(abs(u[i] * v[j] - u[j] * v[i]) <= thr
                   for i in range(6) for j in range(i + 1, 6))


def on_quadric(q: Quaternion, Q: QuadricF3, tol: float | None = None) -> bool:
    """Whether q lies on Q, against the size of the three terms of its equation."""
    scale = abs(Q.alpha) * q.norm_sq() + 2.0 * abs(Q.beta) * abs(q) + abs(Q.gamma)
    return negligible(abs(Q.evaluate(q)), scale, tol)


def transform_quadric(f, Q: QuadricF3) -> QuadricF3:
    """The image quadric f(Q) under a generator, an FLT or a Mat2H.

    Q is (q; 1)* H (q; 1) = 0 with H = [[alpha, conj beta], [beta, gamma]],
    so with B a matrix of f^-1 the image is H' = B* H B.  A generator's B is
    exact; a matrix's is its normalized inverse, so scaling it changes nothing.
    """
    if isinstance(f, Mat2H):
        f = FLT(f)
    B = (f.inverse().matrix if isinstance(f, FLT)
         else generator_matrix(generator_inverse(f)))
    H = Mat2H(ONE * Q.alpha, Q.beta.conj(), Q.beta, ONE * Q.gamma)
    image = B.transpose_conj() @ H @ B
    if not is_finite((image.a.w, *image.c, image.d.w)):
        raise NonFiniteResult("a coefficient of the image quadric does not fit a float")
    try:
        out = QuadricF3(image.a.w, image.c, image.d.w)
    except ValueError as exc:
        raise DegenerateResult(str(exc)) from exc
    # H' = B* H B has terms up to H's coefficient scale times B's entry scale squared
    s = B.entry_scale()
    if negligible(out.coefficient_scale(), Q.coefficient_scale() * (s * s)):
        raise DegenerateResult("transformed quadric has no equation")
    return out
