"""Non-Euclidean lines and the invariant distance on the ball and half-space.

The distance between two points is half the log of the cross-ratio
against the two ends of the non-Euclidean line through them.  Each model
computes it from one closed form, on the ball

    delta(q1, q2) = asinh(|q1 - q2| / sqrt((1 - |q1|^2)(1 - |q2|^2)))

and on the half-space

    delta(q1, q2) = asinh(|q1 - q2| / (2 sqrt(Re q1 Re q2))).

Neither form loses digits near the boundary, |q| -> 1 or Re q -> 0.  The
Cayley map q -> (1 + q)(1 - q)^-1 carries the ball isometrically onto the
half-space Re q > 0, where the line element is |dq| / (2 Re q).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .crossratio import cross_ratio
from .errors import (CoincidentPoints, InternalNumericError, OutOfDomain,
                     TooFewSamples)
from .flt import FLT, INFINITY, ExtQuaternion, MobiusCanonical, apply
from .mat2h import CAYLEY, Mat2H, _norm_sq, qmul_planes
from .quat import ONE, Quaternion, _tols

_MINUS_ONE = Quaternion(-1.0, 0.0, 0.0, 0.0)
_CAYLEY_INV_M = Mat2H(ONE, _MINUS_ONE, ONE, ONE)  # q -> (q - 1)(q + 1)^-1


def cayley(q: ExtQuaternion) -> ExtQuaternion:
    """(1 + q)(1 - q)^-1: unit ball onto the half-space Re q > 0."""
    return apply(CAYLEY, q)


def cayley_inv(q: ExtQuaternion) -> ExtQuaternion:
    """(q - 1)(q + 1)^-1: inverse of cayley."""
    return apply(_CAYLEY_INV_M, q)


def _require_ball(q: Quaternion) -> None:
    if q is INFINITY or q.norm_sq() >= 1.0:
        raise OutOfDomain(f"{q} is not in the open unit ball")


def _require_halfspace(q: Quaternion) -> None:
    if q is INFINITY or q.w <= 0.0:
        raise OutOfDomain(f"{q} is not in the open half-space Re q > 0")


def normalizing_map(q1: Quaternion, q2: Quaternion) -> FLT:
    """The ball Moebius map sending q1 to 0 and q2 to a real t in (0, 1).

    Explicitly L(q) = lam1 (q - q1)(1 - conj(q1) q)^-1 lam2 with the unit
    factors lam1 = |q2 - q1| (q2 - q1)^-1 and
    lam2 = (1 - conj(q1) q2) / |1 - conj(q1) q2|.
    """
    _require_ball(q1)
    _require_ball(q2)
    atol, _ = _tols(None)
    diff = q2 - q1
    if abs(diff) <= atol * (1.0 + max(abs(q1), abs(q2))):
        raise CoincidentPoints("normalizing map needs two distinct points")
    lam1 = diff.inverse() * abs(diff)
    den = ONE - q1.conj() * q2
    lam2 = den * (1.0 / abs(den))
    # canonical parameters: alpha = lam1, beta = lam2^-1 = conj(lam2)
    return MobiusCanonical(lam1, lam2.conj(), q1).to_flt()


def _param_t(q1: Quaternion, q2: Quaternion) -> float:
    return abs(q2 - q1) / abs(ONE - q1.conj() * q2)


@dataclass(frozen=True)
class GeodesicDisc:
    """Non-Euclidean line of the ball through q1 and q2, with its two
    boundary ends; q3 lies beyond q2 and q4 beyond q1."""

    q1: Quaternion
    q2: Quaternion
    q3: Quaternion
    q4: Quaternion
    kind: str  # "Diameter" | "Circle"


def geodesic_disc(q1: Quaternion, q2: Quaternion,
                  tol: float | None = None) -> GeodesicDisc:
    atol, rtol = _tols(tol)
    L = normalizing_map(q1, q2)
    Linv = L.inverse()
    q3 = apply(Linv, ONE)
    q4 = apply(Linv, _MINUS_ONE)
    # the line is a diameter exactly when 0 lies on it, i.e. when
    # conj(q1) q2 is real
    diam = (q1.conj() * q2).im_norm() <= atol * (1.0 + abs(q1) * abs(q2))
    if q1.norm_sq() > 0.01 and q2.norm_sq() > 0.01:
        # redundant route: the reflected pair lies on the same circle
        cr = cross_ratio(q1, q2, q1.conj().inverse(), q2.conj().inverse())
        if cr.im_norm() > 1e-6 * (1.0 + abs(cr)):
            raise InternalNumericError("reflected cross-ratio came out non-real")
    return GeodesicDisc(q1, q2, q3, q4, "Diameter" if diam else "Circle")


def distance_disc(q1: Quaternion, q2: Quaternion) -> float:
    """Invariant distance of the ball."""
    _require_ball(q1)
    _require_ball(q2)
    # 1 - |q|^2 as (1 - |q|)(1 + |q|) keeps its digits as |q| -> 1
    r1, r2 = abs(q1), abs(q2)
    gaps = (1.0 - r1) * (1.0 + r1) * (1.0 - r2) * (1.0 + r2)
    return math.asinh(abs(q1 - q2) / math.sqrt(gaps))


def metric_disc(q: Quaternion, tau: Quaternion) -> float:
    """Length of the tangent vector tau at q: |tau| / (1 - |q|^2)."""
    _require_ball(q)
    return abs(tau) / (1.0 - q.norm_sq())


def metric_halfspace(q: Quaternion, tau: Quaternion) -> float:
    """Length of the tangent vector tau at q: |tau| / (2 Re q)."""
    _require_halfspace(q)
    return abs(tau) / (2.0 * q.w)


# -- sampled geodesics and numeric length ------------------------------


def _apply_matrix_to_reals(M: Mat2H, r) -> tuple:
    """Component planes of the images (a r + b)(c r + d)^-1 of the real
    points r."""
    a, b, c, d = M
    num = [r * a[k] + b[k] for k in range(4)]
    dw, dx, dy, dz = den = [r * c[k] + d[k] for k in range(4)]
    n2 = _norm_sq(den)
    return qmul_planes(num, (dw / n2, -dx / n2, -dy / n2, -dz / n2))


def geodesic_sample_rows(q1: Quaternion, q2: Quaternion, n: int):
    """Component rows (n, 4) of n points along the line from q1 to q2,
    equally spaced in the invariant distance; endpoints are exact.  Bulk
    consumers can feed the rows straight to integrated_length_disc."""
    import numpy as np
    if n < 2:
        raise TooFewSamples("need at least two sample points")
    L = normalizing_map(q1, q2)
    t = _param_t(q1, q2)
    M = L.inverse().matrix
    s = np.linspace(0.0, 1.0, n)
    radii = np.tanh(s * math.atanh(t))
    rows = np.stack(_apply_matrix_to_reals(M, radii), axis=1)
    rows[0] = q1
    rows[-1] = q2
    return rows


def geodesic_sample(q1: Quaternion, q2: Quaternion, n: int) -> list[Quaternion]:
    """geodesic_sample_rows as a list of quaternions."""
    return [Quaternion(*map(float, row)) for row in geodesic_sample_rows(q1, q2, n)]


def integrated_length_disc(path) -> float:
    """Composite-midpoint length of a sampled ball path under the
    invariant line element |dq| / (1 - |q|^2)."""
    import numpy as np
    arr = np.asarray(path if isinstance(path, np.ndarray)
                     else [tuple(p) for p in path], dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("path must be a sequence of quaternions")
    if len(arr) < 2:
        raise TooFewSamples("need at least two path samples")
    if (np.einsum("ij,ij->i", arr, arr) >= 1.0).any():
        raise OutOfDomain("path leaves the open unit ball")
    seg = arr[1:] - arr[:-1]
    mid = 0.5 * (arr[1:] + arr[:-1])
    lengths = np.sqrt(np.einsum("ij,ij->i", seg, seg))
    weights = 1.0 - np.einsum("ij,ij->i", mid, mid)
    return float((lengths / weights).sum())


# -- half-space model ---------------------------------------------------


@dataclass(frozen=True)
class GeodesicHalfspace:
    """Non-Euclidean line of the half-space through q1 and q2.  The ends
    e3, e4 lie on the boundary Re q = 0 or at infinity; e3 is beyond q2."""

    q1: Quaternion
    q2: Quaternion
    e3: ExtQuaternion
    e4: ExtQuaternion
    kind: str  # "HalfLine" | "Arc"


def geodesic_halfspace(q1: Quaternion, q2: Quaternion,
                       tol: float | None = None) -> GeodesicHalfspace:
    _require_halfspace(q1)
    _require_halfspace(q2)
    disc = geodesic_disc(cayley_inv(q1), cayley_inv(q2), tol)
    e3 = cayley(disc.q3)
    e4 = cayley(disc.q4)
    kind = "HalfLine" if (e3 is INFINITY or e4 is INFINITY) else "Arc"
    return GeodesicHalfspace(q1, q2, e3, e4, kind)


def distance_halfspace(q1: Quaternion, q2: Quaternion) -> float:
    """Invariant distance of the half-space."""
    _require_halfspace(q1)
    _require_halfspace(q2)
    # sqrt(Re q1) sqrt(Re q2) cannot underflow; |q1 - q2| is halved last, to
    # keep subnormal bits, or first where it overflows (exactly, at that scale)
    s = math.sqrt(q1.w) * math.sqrt(q2.w)
    gap = abs(q1 - q2)
    x = gap / s * 0.5 if gap < math.inf else abs(q1 * 0.5 - q2 * 0.5) / s
    if x == math.inf:
        # asinh x = log 2x to rounding once x > 2^28; in logs, 2x cannot overflow
        return (math.log(2.0) + math.log(abs(q1 * 0.5 - q2 * 0.5))
                - 0.5 * (math.log(q1.w) + math.log(q2.w)))
    return math.asinh(x)


# -- serialization helpers ----------------------------------------------


def samples_to_json(points) -> list[list[float]]:
    return [[p.w, p.x, p.y, p.z] for p in points]


def samples_to_csv(points, digits: int = 17) -> str:
    lines = ["w,x,y,z"]
    fmt = f"{{:.{digits}g}}"
    for p in points:
        lines.append(",".join(fmt.format(v) for v in p))
    return "\n".join(lines) + "\n"
