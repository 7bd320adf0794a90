"""Exact references for the scalar geometry, independent of the library.

Every float is a dyadic rational, so sums and Hamilton products of float
components are exact in Fraction.  Where a root or a logarithm enters (the
distances), the exact rational argument is evaluated in 50-digit Decimal.
Quaternions are plain 4-tuples (w, x, y, z) or Quaternions.
"""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

EPS = 2.0 ** -52
_DEC = Context(prec=50, Emin=-999999, Emax=999999)


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


def decimal(r: Fraction) -> Decimal:
    with localcontext(_DEC):
        return Decimal(r.numerator) / Decimal(r.denominator)


def _asinh_sqrt(r: Fraction) -> Decimal:
    """asinh(sqrt(r)) for an exact r >= 0."""
    with localcontext(_DEC):
        x = decimal(r).sqrt()
        return (x + (x * x + 1).sqrt()).ln()


def dist_ball(p, q) -> Decimal:
    """asinh(|p - q| / sqrt((1 - |p|^2)(1 - |q|^2)))."""
    gap = norm_sq(tuple(a - b for a, b in zip(as_fractions(p), as_fractions(q))))
    return _asinh_sqrt(gap / (one_minus_norm_sq(p) * one_minus_norm_sq(q)))


def dist_half(p, q) -> Decimal:
    """asinh(|p - q| / (2 sqrt(Re p Re q)))."""
    gap = norm_sq(tuple(a - b for a, b in zip(as_fractions(p), as_fractions(q))))
    return _asinh_sqrt(gap / (4 * Fraction(p[0]) * Fraction(q[0])))


def metric_disc(q, tau) -> Decimal:
    """|tau| / (1 - |q|^2)."""
    with localcontext(_DEC):
        return decimal(norm_sq(tau)).sqrt() / decimal(one_minus_norm_sq(q))


def rel_err(got: float, want) -> float:
    """|got - want| / |want| for an exact (Fraction) or 50-digit (Decimal)
    reference; 0 where both vanish."""
    if isinstance(want, Fraction):
        return float(abs(Fraction(got) - want) / abs(want)) if want else float(got != 0.0)
    with localcontext(_DEC):
        return float(abs(Decimal(got) - want) / abs(want)) if want else float(got != 0.0)
