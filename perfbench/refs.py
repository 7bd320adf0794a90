"""Independent references for the benchmark's output checks.

Nothing here calls the library.  Every float is a dyadic rational, so the
quaternion sums and products of the float inputs are computed exactly in
Python integers after scaling all of them by one power of two.  The
distances need logarithms and are evaluated in 40-digit decimal
arithmetic.  Quaternions are plain 4-tuples (w, x, y, z); a matrix is a
4-tuple of quaternions (a, b, c, d).

Bounds: on interior inputs the checks use the library's own bounds
(1e-9 * (1 + value), and 1e-8 for the inverse residual).  On the hard
slices (near-singular and rank-one matrices, points within 1e-3 of the
boundary) they use C_HARD * EPS times the condition number of the input,
the accuracy a backward-stable evaluation reaches.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

EPS = 2.0 ** -52
C_HARD = 32
INTERIOR_REL = 1e-9
INTERIOR_RESIDUAL = 1e-8
_DEC = Context(prec=40)


# -- quaternion arithmetic over any number type --------------------------


def qmul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def qadd(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2], p[3] + q[3])


def qsub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2], p[3] - q[3])


def qconj(p):
    return (p[0], -p[1], -p[2], -p[3])


def qscale(p, t):
    return (p[0] * t, p[1] * t, p[2] * t, p[3] * t)


def qn2(p):
    return p[0] * p[0] + p[1] * p[1] + p[2] * p[2] + p[3] * p[3]


def qabs(p) -> float:
    return math.sqrt(qn2(p))


def scale_of(M) -> float:
    """Largest entry modulus of a matrix."""
    return max(qabs(e) for e in M)


def _ints(quats):
    """Integers n and one exponent e with every component == n / 2**e."""
    ratios = [float(x).as_integer_ratio() for q in quats for x in q]
    e = max(d.bit_length() for _, d in ratios) - 1
    v = [n << (e - d.bit_length() + 1) for n, d in ratios]
    return [tuple(v[i:i + 4]) for i in range(0, len(v), 4)], e


def _div(q, den):
    """q / den for an integer quaternion and integer den, each component
    correctly rounded (int / int true division rounds once)."""
    return tuple(x / den for x in q)


def _matmul_ints(A, B):
    a1, b1, c1, d1 = A
    a2, b2, c2, d2 = B
    return (qadd(qmul(a1, a2), qmul(b1, c2)), qadd(qmul(a1, b2), qmul(b1, d2)),
            qadd(qmul(c1, a2), qmul(d1, c2)), qadd(qmul(c1, b2), qmul(d1, d2)))


# -- matrices -------------------------------------------------------------


def det_sq(M) -> Fraction:
    """det_h(M)^2 exactly, by the Schur form |a|^2 |d - c a^-1 b|^2 (or
    |b|^2 |c|^2 when a = 0), a different route from the library's
    radicand."""
    (a, b, c, d), e = _ints(M)
    na = qn2(a)
    if na == 0:
        return Fraction(qn2(b) * qn2(c), 1 << (4 * e))
    # d - c a^-1 b = (d |a|^2 - c conj(a) b) / |a|^2
    x = qsub(qscale(d, na), qmul(qmul(c, qconj(a)), b))
    return Fraction(qn2(x), na << (4 * e))


def det(M) -> float:
    return math.sqrt(det_sq(M))


def matmul(A, B):
    """A B exactly, each component rounded once to float."""
    ints, e = _ints(list(A) + list(B))
    den = 1 << (2 * e)
    return tuple(_div(q, den) for q in _matmul_ints(ints[:4], ints[4:]))


def residual(A, X) -> float:
    """max over entries of |(A X - I)_ij|, exactly, then rounded."""
    ints, e = _ints(list(A) + list(X))
    one = 1 << (2 * e)
    P = _matmul_ints(ints[:4], ints[4:])
    R = (qsub(P[0], (one, 0, 0, 0)), P[1], P[2], qsub(P[3], (one, 0, 0, 0)))
    return math.sqrt(max(qn2(r) for r in R) / (1 << (4 * e)))


def _mobius_ints(a, b, c, d, q, shift):
    num = qadd(qmul(a, q), tuple(x << shift for x in b))
    den = qadd(qmul(c, q), tuple(x << shift for x in d))
    n2 = qn2(den)
    if n2 == 0:
        return None
    return _div(qmul(num, qconj(den)), n2)


def mobius(M, q):
    """(a q + b)(c q + d)^-1 exactly, rounded; None at the pole."""
    ints, e = _ints(list(M) + [q])
    a, b, c, d, qi = ints
    return _mobius_ints(a, b, c, d, qi, e)


def mobius2(A, B, q):
    """M_A(M_B(q)), evaluated exactly as M_{AB}(q); None at a pole."""
    ints, e = _ints(list(A) + list(B) + [q])
    a, b, c, d = _matmul_ints(ints[:4], ints[4:8])
    return _mobius_ints(a, b, c, d, ints[8], e)


def cross_ratio(q1, q2, q3, q4):
    """(q1 - q3)(q1 - q4)^-1 (q2 - q4)(q2 - q3)^-1 exactly, rounded."""
    (p1, p2, p3, p4), _ = _ints([q1, q2, q3, q4])
    u, v = qsub(p1, p4), qsub(p2, p3)
    num = qmul(qmul(qmul(qsub(p1, p3), qconj(u)), qsub(p2, p4)), qconj(v))
    return _div(num, qn2(u) * qn2(v))


def kappa_mobius(moduli, q, num, den) -> float:
    """Componentwise condition of (a q + b)(c q + d)^-1 at q, from the
    entry moduli (|a|, |b|, |c|, |d|) and the exact numerator and
    denominator values."""
    ma, mb, mc, md = moduli
    r = qabs(q)
    return (ma * r + mb) / max(qabs(num), 1e-300) + (mc * r + md) / max(qabs(den), 1e-300)


# -- distances -------------------------------------------------------------


def _asinh(x: Decimal) -> Decimal:
    return (x + (x * x + 1).sqrt()).ln()


def dist_ball(p, q) -> float:
    """asinh(|p - q| / sqrt((1 - |p|^2)(1 - |q|^2))) in decimal."""
    with localcontext(_DEC):
        P = [Decimal(x) for x in p]
        Q = [Decimal(x) for x in q]
        gap = sum((s - t) * (s - t) for s, t in zip(P, Q))
        wp = 1 - sum(s * s for s in P)
        wq = 1 - sum(t * t for t in Q)
        return float(_asinh((gap / (wp * wq)).sqrt()))


def dist_half(p, q) -> float:
    """asinh(|p - q| / (2 sqrt(Re p Re q))) in decimal."""
    with localcontext(_DEC):
        P = [Decimal(x) for x in p]
        Q = [Decimal(x) for x in q]
        gap = sum((s - t) * (s - t) for s, t in zip(P, Q))
        return float(_asinh((gap / (4 * P[0] * Q[0])).sqrt()))


def kappa_ball(p, q, d: float) -> float:
    """Absolute condition of the ball distance under relative
    perturbations of the components: near |p| = 1 the distance itself is
    ill-conditioned, and the bound grows with it."""
    rp, rq = qn2(p), qn2(q)
    gap = qabs(qsub(p, q))
    return math.tanh(d) * ((math.sqrt(rp) + math.sqrt(rq)) / gap
                           + rp / (1.0 - rp) + rq / (1.0 - rq))


def kappa_half(p, q, d: float) -> float:
    """Same for the half-space distance; it stays well conditioned as
    Re p -> 0, since Re p carries its own relative error."""
    gap = qabs(qsub(p, q))
    return math.tanh(d) * ((qabs(p) + qabs(q)) / gap + 1.0)


# -- bounds ----------------------------------------------------------------


def dist_bound(d: float, kappa: float, hard: bool) -> float:
    if hard:
        return C_HARD * EPS * (1.0 + d + kappa)
    return INTERIOR_REL * (1.0 + d)


def close(got: float, want: float, bound: float) -> bool:
    """|got - want| <= bound, false for NaN."""
    return abs(got - want) <= bound
