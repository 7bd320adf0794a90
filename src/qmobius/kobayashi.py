"""Comparison of the ball distance with the Kobayashi distance of the
complex unit ball under the identification H = C + Cj.

A quaternion w + x i + y j + z k corresponds to the complex pair
(w + x i, y + z i).  With a = to_c2(p), w = to_c2(q) - a, g_p = 1 - |p|^2
and g_q = 1 - |q|^2 (Rudin, Function Theory in the Unit Ball of C^n,
Thm 2.2.2: 1 - |phi_a(z)|^2 = g_p g_q / |1 - <z, a>|^2),

    sinh^2 d_K = (g_p |w|^2 + |<w, a>|^2) / (g_p g_q),

while the ball's own distance has sinh^2 delta = |w|^2 / (g_p g_q).  So

    sinh^2 delta - sinh^2 d_K = |a_1 w_2 - a_2 w_1|^2 / (g_p g_q) >= 0,

with equality exactly on complex lines through 0.  At p = (alpha, 0) and
q = (0, beta) the squared moduli tanh^2 are

    Q = (|beta|^2 + |alpha|^2) / (1 + |alpha|^2 |beta|^2)
    C = |alpha|^2 + (1 - |alpha|^2) |beta|^2

and Q - C = |alpha|^2 |beta|^2 (1 - |alpha|^2)(1 - |beta|^2) / (1 + ...)
is strictly positive off the axes, so the identification is not an
isometry between the two metrics.
"""

from __future__ import annotations

import math

from .errors import TooFewSamples
from .hypgeo import ball_gap, distance_disc
from .quat import N2_TINY, Quaternion

ComplexPair = tuple[complex, complex]


def to_c2(q: Quaternion) -> ComplexPair:
    """(w + x i, y + z i) for q = w + x i + y j + z k."""
    return complex(q.w, q.x), complex(q.y, q.z)


def from_c2(p: ComplexPair) -> Quaternion:
    z, w = p
    return Quaternion(z.real, z.imag, w.real, w.imag)


def ball_automorphism(a: ComplexPair, z: ComplexPair) -> ComplexPair:
    """The automorphism of the complex unit ball that swaps a and 0,

        phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>),

    with P_a the orthogonal projection onto C a, Q_a = 1 - P_a and
    s_a = sqrt(1 - |a|^2) (Rudin, section 2.2); phi_a is an involution.  It
    is taken as (P_a w + s_a Q_a w) / (1 - <z, a>) with w = a - z, and the real
    part of 1 - <z, a> as (g_a + g_z + |w|^2) / 2, g = 1 - |.|^2 by the ball's
    domain rule, ball_gap: no term cancels as a or z nears the sphere.
    """
    ga, gz = ball_gap(from_c2(a)), ball_gap(from_c2(z))
    w = (a[0] - z[0], a[1] - z[1])
    aa = abs(a[0]) ** 2 + abs(a[1]) ** 2
    wa = w[0] * a[0].conjugate() + w[1] * a[1].conjugate()
    t = wa / aa if aa else 0j  # P_a w = t a
    s = math.sqrt(ga)
    den = complex(0.5 * (ga + gz + abs(w[0]) ** 2 + abs(w[1]) ** 2), wa.imag)
    return tuple((t * ai + s * (wi - t * ai)) / den for ai, wi in zip(a, w))


def kobayashi_distance(p: Quaternion, q: Quaternion) -> float:
    """Kobayashi distance of the complex unit ball between to_c2(p) and
    to_c2(q), by the closed form of the module docstring; both terms of its
    numerator are nonnegative, so nothing cancels near the sphere.  g is
    the ball's domain rule, ball_gap."""
    gp, gq = ball_gap(p), ball_gap(q)
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    ww, wx, wy, wz = qw - pw, qx - px, qy - py, qz - pz
    ww2 = ww * ww + wx * wx + wy * wy + wz * wz
    scale = 1.0
    if ww2 < N2_TINY:  # sinh d_K is linear in w: take w at 2^600, exactly
        ww, wx, wy, wz = ww * 2.0 ** 600, wx * 2.0 ** 600, wy * 2.0 ** 600, wz * 2.0 ** 600
        ww2 = ww * ww + wx * wx + wy * wy + wz * wz
        scale = 2.0 ** -600
    re = ww * pw + wx * px + wy * py + wz * pz  # <w, a> on components
    im = wx * pw - ww * px + wz * py - wy * pz
    return math.asinh(math.sqrt((gp * ww2 + (re * re + im * im)) / (gp * gq)) * scale)


def non_isometry_witness(grid: int = 20) -> dict:
    """Report the gap between the two metrics at alpha = beta = 0.5 and
    scan a grid of moduli for the largest gap found; the grid needs at
    least two points per axis (TooFewSamples)."""
    if grid < 2:
        raise TooFewSamples("the witness scan needs at least two grid points per axis")

    def distances(alpha: float, beta: float) -> tuple[float, float]:
        p, q = from_c2((complex(alpha), 0j)), from_c2((0j, complex(beta)))
        return distance_disc(p, q), kobayashi_distance(p, q)

    a = b = 0.5
    poincare, kobayashi = distances(a, b)
    Q, C = math.tanh(poincare) ** 2, math.tanh(kobayashi) ** 2
    max_gap = 0.0
    for i in range(grid):
        for j in range(grid):
            dp, dk = distances(i / grid, j / grid)
            max_gap = max(max_gap, abs(math.tanh(dp) ** 2 - math.tanh(dk) ** 2))
    return {
        "witness": {"alpha": a, "beta": b, "Q": Q, "C": C, "gap": Q - C},
        "distances": {"poincare": poincare, "kobayashi": kobayashi},
        "grid_max_gap": max_gap,
    }
