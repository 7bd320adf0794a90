"""Comparison of the ball distance with the complex-ball distance under
the identification H = C + Cj.

A quaternion w + x i + y j + z k corresponds to the complex pair
(w + x i, y + z i).  On pairs (alpha, 0) and (0, beta) the invariant
quaternionic distance from the image of the origin exceeds the
Kobayashi distance of the complex unit ball: the squared moduli are

    Q = (|beta|^2 + |alpha|^2) / (1 + |alpha|^2 |beta|^2)
    C = |alpha|^2 + (1 - |alpha|^2) |beta|^2

and Q - C = |alpha|^2 |beta|^2 (1 - |alpha|^2)(1 - |beta|^2) / (1 + ...)
is strictly positive off the axes, so the identification is not an
isometry between the two metrics.
"""

from __future__ import annotations

import math

from .errors import InternalNumericError, OutOfDomain, TooFewSamples
from .flt import MobiusCanonical
from .quat import ONE, Quaternion

ComplexPair = tuple[complex, complex]

_AGREE = 1e-10  # the closed form and the direct evaluation must match


def to_c2(q: Quaternion) -> ComplexPair:
    """(w + x i, y + z i) for q = w + x i + y j + z k."""
    return complex(q.w, q.x), complex(q.y, q.z)


def from_c2(p: ComplexPair) -> Quaternion:
    z, w = p
    return Quaternion(z.real, z.imag, w.real, w.imag)


def kobayashi_from_origin(q: Quaternion) -> float:
    """Distance from 0 in the ball; both metrics give atanh |q| here."""
    n = abs(q)
    if n >= 1.0:
        raise OutOfDomain(f"{q} is not in the open unit ball")
    return math.atanh(n)


def _check_unit_disc(value: complex, name: str) -> None:
    if abs(value) >= 1.0:
        raise OutOfDomain(f"{name} must lie in the open unit disc")


def ball_automorphism(a: ComplexPair, z: ComplexPair) -> ComplexPair:
    """The automorphism of the complex unit ball that swaps a and 0,

        phi_a(z) = (a - P_a z - s_a Q_a z) / (1 - <z, a>),

    with P_a the orthogonal projection onto C a, Q_a = 1 - P_a and
    s_a = sqrt(1 - |a|^2) (Rudin, Function Theory in the Unit Ball of C^n,
    section 2.2); phi_a is an involution.
    """
    aa = abs(a[0]) ** 2 + abs(a[1]) ** 2
    za = z[0] * a[0].conjugate() + z[1] * a[1].conjugate()
    t = za / aa if aa else 0j  # P_a z = t a
    s = math.sqrt(1.0 - aa)
    return tuple((ai - t * ai - s * (zi - t * ai)) / (1.0 - za)
                 for ai, zi in zip(a, z))


def poincare_image_modulus_sq(alpha: complex, beta: complex) -> float:
    """|M(beta j)|^2 for the ball Moebius map M centered at (alpha, 0).

    Evaluated both by the closed form and by the canonical ball map
    with q0 = (alpha, 0); a mismatch beyond 1e-10 raises.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    _check_unit_disc(alpha, "alpha")
    _check_unit_disc(beta, "beta")
    a2 = abs(alpha) ** 2
    b2 = abs(beta) ** 2
    closed = (b2 + a2) / (1.0 + a2 * b2)
    image = MobiusCanonical(ONE, ONE, from_c2((alpha, 0j)))(from_c2((0j, beta)))
    direct = image.norm_sq()
    if abs(direct - closed) > _AGREE:
        raise InternalNumericError(
            f"direct evaluation {direct} disagrees with closed form {closed}")
    return closed


def kobayashi_image_modulus_sq(alpha: complex, beta: complex) -> float:
    """|phi(0, beta)|^2 for the complex-ball automorphism phi centered at
    (alpha, 0), checked against ball_automorphism as
    poincare_image_modulus_sq is against the canonical map.

    (0, beta) is orthogonal to (alpha, 0), so the projection term of
    ball_automorphism vanishes there; the image has <image, a> = |alpha|^2,
    and mapping it back to (0, beta) checks the projection term too.  The
    way back divides by 1 - |alpha|^2, so its error is weighed by that.
    """
    alpha = complex(alpha)
    beta = complex(beta)
    _check_unit_disc(alpha, "alpha")
    _check_unit_disc(beta, "beta")
    a2 = abs(alpha) ** 2
    b2 = abs(beta) ** 2
    closed = a2 + (1.0 - a2) * b2
    image = ball_automorphism((alpha, 0j), (0j, beta))
    direct = abs(image[0]) ** 2 + abs(image[1]) ** 2
    if abs(direct - closed) > _AGREE:
        raise InternalNumericError(
            f"direct evaluation {direct} disagrees with closed form {closed}")
    z, w = ball_automorphism((alpha, 0j), image)
    if max(abs(z), abs(w - beta)) * (1.0 - a2) > _AGREE:
        raise InternalNumericError(
            f"the automorphism maps its image back to {(z, w)}, not (0, {beta})")
    return closed


def non_isometry_witness(grid: int = 20) -> dict:
    """Report the gap between the two metrics at alpha = beta = 0.5 and
    scan a grid of moduli for the largest gap found.

    The witness gap must exceed 1e-3, otherwise something is deeply
    wrong and InternalNumericError is raised.  The grid needs at least two
    points per axis (TooFewSamples).
    """
    if grid < 2:
        raise TooFewSamples("the witness scan needs at least two grid points per axis")
    a = b = 0.5
    Q = poincare_image_modulus_sq(complex(a), complex(b))
    C = kobayashi_image_modulus_sq(complex(a), complex(b))
    gap = Q - C
    if not gap > 1e-3:
        raise InternalNumericError(f"witness gap {gap} is implausibly small")
    max_gap = 0.0
    for i in range(grid):
        for j in range(grid):
            u = i / grid
            v = j / grid
            g = abs(poincare_image_modulus_sq(complex(u), complex(v))
                    - kobayashi_image_modulus_sq(complex(u), complex(v)))
            if g > max_gap:
                max_gap = g
    return {
        "witness": {"alpha": a, "beta": b, "Q": Q, "C": C, "gap": gap},
        "distances": {"poincare": math.atanh(math.sqrt(Q)),
                      "kobayashi": math.atanh(math.sqrt(C))},
        "grid_max_gap": max_gap,
    }
