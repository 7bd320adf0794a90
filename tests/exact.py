"""Exact references for the scalar geometry, independent of the library.

Every float is a dyadic rational, so sums and Hamilton products of float
components are exact in Fraction.  Where a root or a logarithm enters (the
distances), the exact rational argument is evaluated in 50-digit Decimal.
Quaternions are plain 4-tuples (w, x, y, z) or Quaternions.  The points
near the unit sphere that the pins sample are here too.
"""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

from qmobius.sampling import random_unit_quaternion

EPS = 2.0 ** -52
_DEC = Context(prec=50, Emin=-999999, Emax=999999)
# |q|^2 rounds to 1 - 2^-53, but the exact |q|^2 is 1 + 8.5e-18
OUTSIDE_BY_ROUNDING = (0.5423511255843019, 0.7520647192686067, 0.321282853575334,
                       0.19243503477112234)


def at_depth(rng, delta):
    """A random point with 1 - |q| = delta, rounded into the ball."""
    while True:
        p = random_unit_quaternion(rng) * (1.0 - delta)
        if p.norm_sq() < 1.0:
            return p


def as_fractions(q) -> tuple:
    return tuple(Fraction(v) for v in q)


def qmul(p, q) -> tuple:
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def norm_sq(q) -> Fraction:
    return sum(v * v for v in as_fractions(q))


def one_minus_norm_sq(q) -> Fraction:
    """1 - |q|^2 exactly."""
    return 1 - norm_sq(q)


def cayley(q) -> tuple:
    """(1 + q)(1 - q)^-1 exactly, as the product (1 + q) conj(1 - q) / |1 - q|^2."""
    w, x, y, z = as_fractions(q)
    v = (1 - w, -x, -y, -z)
    num = qmul((1 + w, x, y, z), (v[0], -v[1], -v[2], -v[3]))
    return tuple(c / norm_sq(v) for c in num)


def det_h_sq(A) -> Fraction:
    """det_h(A)^2 = |a|^2 |d|^2 + |c|^2 |b|^2 - 2 Re(c conj(a) b conj(d)),
    exactly, for A = (a, b, c, d)."""
    a, b, c, d = (as_fractions(e) for e in A)
    r = qmul(qmul(c, (a[0], -a[1], -a[2], -a[3])), b)
    re = sum(x * y for x, y in zip(r, d))  # Re(r conj(d))
    return norm_sq(a) * norm_sq(d) + norm_sq(c) * norm_sq(b) - 2 * re


def decimal(r: Fraction) -> Decimal:
    with localcontext(_DEC):
        return Decimal(r.numerator) / Decimal(r.denominator)


def _asinh_sqrt(r: Fraction) -> Decimal:
    """asinh(sqrt(r)) for an exact r >= 0; below 1e-10 by its series, where
    the log form would round 1 + x to 1."""
    with localcontext(_DEC):
        x = decimal(r).sqrt()
        if x < Decimal("1e-10"):
            return x * (1 - x * x / 6 + 3 * x ** 4 / 40)
        return (x + (x * x + 1).sqrt()).ln()


def dist_ball(p, q) -> Decimal:
    """asinh(|p - q| / sqrt((1 - |p|^2)(1 - |q|^2)))."""
    gap = norm_sq(tuple(a - b for a, b in zip(as_fractions(p), as_fractions(q))))
    return _asinh_sqrt(gap / (one_minus_norm_sq(p) * one_minus_norm_sq(q)))


def dist_half(p, q) -> Decimal:
    """asinh(|p - q| / (2 sqrt(Re p Re q)))."""
    gap = norm_sq(tuple(a - b for a, b in zip(as_fractions(p), as_fractions(q))))
    return _asinh_sqrt(gap / (4 * Fraction(p[0]) * Fraction(q[0])))


def dist_kob(p, q) -> Decimal:
    """The Kobayashi distance of the complex unit ball between the pairs
    (w + x i, y + z i) of p and q, artanh |phi_a(z)|, through Rudin's
    1 - |phi_a(z)|^2 = (1 - |a|^2)(1 - |z|^2) / |1 - <z, a>|^2: its
    sinh^2 is |1 - <z, a>|^2 / ((1 - |a|^2)(1 - |z|^2)) - 1."""
    aw, ax, ay, az = as_fractions(p)
    zw, zx, zy, zz = as_fractions(q)
    # 1 - <z, a> = 1 - z1 conj(a1) - z2 conj(a2), a1 = aw + ax i, a2 = ay + az i
    re = 1 - (zw * aw + zx * ax + zy * ay + zz * az)
    im = -(zx * aw - zw * ax + zz * ay - zy * az)
    gaps = one_minus_norm_sq(p) * one_minus_norm_sq(q)
    return _asinh_sqrt((re * re + im * im) / gaps - 1)


def metric_disc(q, tau) -> Decimal:
    """|tau| / (1 - |q|^2)."""
    with localcontext(_DEC):
        return decimal(norm_sq(tau)).sqrt() / decimal(one_minus_norm_sq(q))


def metric_half(q, tau) -> Decimal:
    """|tau| / (2 Re q)."""
    with localcontext(_DEC):
        return decimal(norm_sq(tau)).sqrt() / (2 * decimal(Fraction(q[0])))


def rel_err(got: float, want) -> float:
    """|got - want| / |want| for an exact (Fraction) or 50-digit (Decimal)
    reference; 0 where both vanish."""
    if isinstance(want, Fraction):
        return float(abs(Fraction(got) - want) / abs(want)) if want else float(got != 0.0)
    with localcontext(_DEC):
        return float(abs(Decimal(got) - want) / abs(want)) if want else float(got != 0.0)
