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

The end beyond x of the ball's line through y and x, the image of -u under the
ball map sending 0 to x, is e(x, y) = (x - u)(1 - conj(x) u)^-1 for u = m / |m|,
m = (y - x)(1 - conj(x) y)^-1.  geodesic_disc takes each end from its own base:
from x near the sphere, the far end's denominator cancels to about 1 - |x|.
geodesic_sample_rows puts the point at distance artanh(r) from x, r in [0, 1),
at (u r + x)(conj(x) u r + 1)^-1: normalizing_map's inverse, in closed form.

In the half-space, with x = Re q and v = Im q, the line through q1 and q2 is the
half-line over v1 when v1 = v2, else the semicircle of center v1 + y0 e and
radius R = hypot(x1, y0), e = (v2 - v1) / L, L = |v2 - v1|,
y0 = (L + (x2 - x1)(x2 + x1) / L) / 2.  Its ends v1 + s e, s3 = y0 + R beyond q2
and s4 = y0 - R, have Re 0; the cancelling one is -x1^2 over the other.  At
tan(phi / 2) = e^sigma it passes v1 + (y0 - R tanh sigma) e + R / cosh sigma:
ds = -dsigma / 2 and sinh sigma1 = y0 / x1 at q1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CoincidentPoints, NonFiniteResult, OutOfDomain, TooFewSamples
from .flt import FLT, INFINITY, ExtQuaternion, MobiusCanonical, apply
from .mat2h import CAYLEY, CAYLEY_INV, Mat2H, _norm_sq, qmul_planes
from .quat import N2_HUGE, N2_TINY, ONE, Quaternion, _new, _tols, coincident


def cayley(q: ExtQuaternion) -> ExtQuaternion:
    """(1 + q)(1 - q)^-1: unit ball onto the half-space Re q > 0."""
    return apply(CAYLEY, q)


def cayley_inv(q: ExtQuaternion) -> ExtQuaternion:
    """(q - 1)(q + 1)^-1: inverse of cayley."""
    return apply(CAYLEY_INV, q)


def _require_ball(q: Quaternion) -> None:
    if q is INFINITY or q.norm_sq() >= 1.0:
        raise OutOfDomain(f"{q} is not in the open unit ball")


def _require_halfspace(q: Quaternion) -> None:
    if q is INFINITY or q.w <= 0.0:
        raise OutOfDomain(f"{q} is not in the open half-space Re q > 0")


def _require_distinct(q1: Quaternion, q2: Quaternion, tol: float | None) -> Quaternion:
    """q2 - q1, for two points of the ball that do not coincide."""
    _require_ball(q1)
    _require_ball(q2)
    diff = q2 - q1
    if coincident(abs(diff), abs(q1), abs(q2), tol):
        raise CoincidentPoints("a line needs two distinct points")
    return diff


def normalizing_map(q1: Quaternion, q2: Quaternion) -> FLT:
    """The ball Moebius map sending q1 to 0 and q2 to a real t in (0, 1).

    Explicitly L(q) = lam1 (q - q1)(1 - conj(q1) q)^-1 lam2 with the unit
    factors lam1 = |q2 - q1| (q2 - q1)^-1 and
    lam2 = (1 - conj(q1) q2) / |1 - conj(q1) q2|.
    """
    diff = _require_distinct(q1, q2, None)
    lam1 = diff.inverse() * abs(diff)
    den = ONE - q1.conj() * q2
    lam2 = den * (1.0 / abs(den))
    # canonical parameters: alpha = lam1, beta = lam2^-1 = conj(lam2)
    return MobiusCanonical(lam1, lam2.conj(), q1).to_flt()


def _over_gap(num, x, y) -> tuple:
    """num * (ONE - x.conj() * y).inverse() on components, with the
    operators' operations in their order; inverse rescales out of range."""
    xw, xx, xy, xz = x
    pw, px, py, pz = qmul_planes((xw, -xx, -xy, -xz), y)
    w, i, j, k = gap = (1.0 - pw, 0.0 - px, 0.0 - py, 0.0 - pz)
    n2 = w * w + i * i + j * j + k * k
    if N2_TINY <= n2 < N2_HUGE:
        return qmul_planes(num, (w / n2, -i / n2, -j / n2, -k / n2))
    return qmul_planes(num, _new(Quaternion, gap).inverse())


def _direction(x: Quaternion, y: Quaternion) -> Quaternion:
    """u of the module docstring: m / |m|, where m is the image of y under
    the ball map that sends x to 0."""
    m = _over_gap((y[0] - x[0], y[1] - x[1], y[2] - x[2], y[3] - x[3]), x, y)
    s = 1.0 / math.hypot(*m)
    return _new(Quaternion, (m[0] * s, m[1] * s, m[2] * s, m[3] * s))


def _end_beyond(x: Quaternion, y: Quaternion) -> Quaternion:
    """e(x, y) of the module docstring: the end beyond x of the line through y."""
    u = _direction(x, y)
    return _new(Quaternion, _over_gap(
        (x[0] - u[0], x[1] - u[1], x[2] - u[2], x[3] - u[3]), x, u))


class GeodesicDisc(NamedTuple):
    """Non-Euclidean line of the ball through q1 and q2, with its two
    boundary ends; q3 lies beyond q2 and q4 beyond q1."""

    q1: Quaternion
    q2: Quaternion
    q3: Quaternion
    q4: Quaternion
    kind: str  # "Diameter" | "Circle"


def geodesic_disc(q1: Quaternion, q2: Quaternion,
                  tol: float | None = None) -> GeodesicDisc:
    atol, _ = _tols(tol)
    _require_distinct(q1, q2, tol)
    q3 = _end_beyond(q2, q1)
    q4 = _end_beyond(q1, q2)
    # the line is a diameter exactly when 0 lies on it, i.e. when
    # conj(q1) q2 is real
    diam = (q1.conj() * q2).im_norm() <= atol * (1.0 + abs(q1) * abs(q2))
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


def geodesic_sample_rows(q1: Quaternion, q2: Quaternion, n: int,
                         tol: float | None = None):
    """Component rows (n, 4) of n points along the line from q1 to q2,
    equally spaced in the invariant distance; endpoints are exact.  Bulk
    consumers can feed the rows straight to integrated_length_disc."""
    import numpy as np
    if n < 2:
        raise TooFewSamples("need at least two sample points")
    _require_distinct(q1, q2, tol)
    u = _direction(q1, q2)
    M = Mat2H(u, q1, q1.conj() * u, ONE)
    radii = np.tanh(np.linspace(0.0, 1.0, n) * distance_disc(q1, q2))
    rows = np.stack(_apply_matrix_to_reals(M, radii), axis=1)
    rows[0] = q1
    rows[-1] = q2
    return rows


def geodesic_sample(q1: Quaternion, q2: Quaternion, n: int,
                    tol: float | None = None) -> list[Quaternion]:
    """geodesic_sample_rows as a list of quaternions."""
    return [Quaternion(*map(float, row)) for row in geodesic_sample_rows(q1, q2, n, tol)]


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


class GeodesicHalfspace(NamedTuple):
    """Non-Euclidean line of the half-space through q1 and q2.  The ends
    e3, e4 lie on the boundary Re q = 0 or at infinity (a half-line's upper
    end, or an arc's end that does not fit a float); e3 is beyond q2."""

    q1: Quaternion
    q2: Quaternion
    e3: ExtQuaternion
    e4: ExtQuaternion
    kind: str  # "HalfLine" | "Arc"


def _arc(q1: Quaternion, q2: Quaternion, tol: float | None):
    """(e, y0, R, s3, s4) of the module docstring for two distinct points of
    the half-space; None for a half-line, also one whose y0 overflows."""
    _require_halfspace(q1)
    _require_halfspace(q2)
    if coincident(abs(q2 - q1), abs(q1), abs(q2), tol):
        raise CoincidentPoints("a line needs two distinct points")
    d = (q2.x - q1.x, q2.y - q1.y, q2.z - q1.z)
    L = math.hypot(*d)
    if L == 0.0:
        return None
    if L == math.inf:
        raise NonFiniteResult("the gap between the imaginary parts does not fit a float")
    x1, x2 = q1.w, q2.w
    r = (x2 - x1) / L
    y0 = 0.5 * (L + (r * x2 + r * x1))
    if abs(y0) == math.inf:
        return None
    R = math.hypot(x1, y0)
    far = y0 + math.copysign(R, y0)  # the end on y0's side: no cancellation
    if abs(far) < math.inf:
        near = -(x1 / far) * x1  # (y0 + R)(y0 - R) = -x1^2
    else:  # the same at half scale
        near = -(x1 / (0.5 * y0 + math.copysign(0.5 * R, y0))) * (0.5 * x1)
    s3, s4 = (near, far) if far < 0.0 else (far, near)
    return (d[0] / L, d[1] / L, d[2] / L), y0, R, s3, s4


def _arc_point(q1: Quaternion, arc, sigma: float) -> ExtQuaternion:
    """The point of the arc at sigma, its offset taken from the end on its
    side; sigma = -inf, +inf give the ends s3, s4 themselves."""
    e, _, R, s3, s4 = arc
    g = math.exp(-abs(sigma))
    c = 0.5 + 0.5 * g * g
    off = s4 + R * g * g / c if sigma > 0.0 else s3 - R * g * g / c
    p = (R * g / c, q1.x + off * e[0], q1.y + off * e[1], q1.z + off * e[2])
    return _new(Quaternion, p) if all(map(math.isfinite, p)) else INFINITY


def geodesic_halfspace(q1: Quaternion, q2: Quaternion,
                       tol: float | None = None) -> GeodesicHalfspace:
    arc = _arc(q1, q2, tol)
    if arc is None:
        foot = _new(Quaternion, (0.0, q1.x, q1.y, q1.z))
        e3, e4 = (INFINITY, foot) if q2.w > q1.w else (foot, INFINITY)
        return GeodesicHalfspace(q1, q2, e3, e4, "HalfLine")
    e3, e4 = _arc_point(q1, arc, -math.inf), _arc_point(q1, arc, math.inf)
    return GeodesicHalfspace(q1, q2, e3, e4, "Arc")


def geodesic_sample_halfspace(q1: Quaternion, q2: Quaternion, n: int,
                              tol: float | None = None) -> list[Quaternion]:
    """n points along the half-space line from q1 to q2, equally spaced in
    the invariant distance (sigma = sigma1 - 2s); endpoints are exact."""
    if n < 2:
        raise TooFewSamples("need at least two sample points")
    arc = _arc(q1, q2, tol)
    step = 2.0 * distance_halfspace(q1, q2) / (n - 1)
    if arc is None:  # Re q = Re q1 e^(+-2s) over the foot of q1
        x1, x, y, z = q1
        sign = 1.0 if q2.w > x1 else -1.0
        inner = [Quaternion(x1 * math.exp(sign * k * step), x, y, z) for k in range(1, n - 1)]
    else:
        sigma1 = math.asinh(arc[1] / q1.w)
        inner = [_arc_point(q1, arc, sigma1 - k * step) for k in range(1, n - 1)]
    if any(p is INFINITY or p.w == 0.0 for p in inner):  # over- or underflowed
        raise NonFiniteResult("a sample of the line does not fit a float")
    return [q1, *inner, q2]


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
