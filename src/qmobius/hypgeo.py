"""Non-Euclidean lines and the invariant distance on the ball and half-space.

The distance between two points is half the log of the cross-ratio
against the two ends of the non-Euclidean line through them.  Each model
computes it from one closed form, on the ball

    delta(q1, q2) = asinh(|q1 - q2| / sqrt((1 - |q1|^2)(1 - |q2|^2)))

and on the half-space

    delta(q1, q2) = asinh(|q1 - q2| / (2 sqrt(Re q1 Re q2))).

Neither form loses digits near the boundary, |q| -> 1 or Re q -> 0.  The
Cayley map q -> (1 + q)(1 - q)^-1, ((1 - |q|^2) + 2 Im q) / |1 - q|^2 since
1 + q and 1 - q commute, carries the ball isometrically onto the half-space
Re q > 0, where the line element is |dq| / (2 Re q).

The end beyond x of the ball's line through y and x, the image of -u under the
ball map sending 0 to x, is e(x, y) = (x - u)(1 - conj(x) u)^-1 for u = m / |m|,
m = (y - x)(1 - conj(x) y)^-1.  geodesic_disc takes each end from its own base
(from x near the sphere, the far end's denominator cancels to about 1 - |x|),
with the Quaternion operators' operations in their order on unpacked floats.
geodesic_sample_rows takes each sample from its nearer end by the same rule:
the point at distance artanh(r) from x toward y, r in [0, 1), is
(u r + x)(conj(x) u r + 1)^-1, normalizing_map's inverse in closed form.

In the half-space, with x = Re q and v = Im q, the line through q1 and q2 is the
half-line over v1 when v1 = v2, else the semicircle of center v1 + y0 e and
radius R = hypot(x1, y0), e = (v2 - v1) / L, L = |v2 - v1|,
y0 = (L + (x2 - x1)(x2 + x1) / L) / 2.  Its ends v1 + s e, s3 = y0 + R beyond q2
and s4 = y0 - R (geodesic_halfspace's, from _arc), have Re 0; the cancelling one
is -x1^2 over the other.  At tan(phi / 2) = e^sigma it passes
v1 + (y0 - R tanh sigma) e + R / cosh sigma:
ds = -dsigma / 2 and sinh sigma1 = y0 / x1 at q1.  geodesic_sample_halfspace
also takes each sample from its nearer end, at Re = x1 cosh sigma1 / cosh sigma,
so that nothing leaves float range before the sample itself does.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import CoincidentPoints, NonFiniteResult, OutOfDomain, TooFewSamples
from .flt import _POLE_EPS, FLT, INFINITY, ExtQuaternion, MobiusCanonical, apply
from .mat2h import CAYLEY, CAYLEY_INV, Mat2H, _empty, norm_sq_into, qmul_into
from .quat import N2_HUGE, N2_TINY, ONE, Quaternion, _new, bound, coincident, is_finite


def _one_minus_norm_sq(w: float, x: float, y: float, z: float, top: float = 2.0) -> float:
    """1 - |q|^2 for q = w + x i + y j + z k.  Where s = |q|^2 lies in [3/4, top)
    it is correctly rounded but for an absolute 2^-100, so it keeps its digits as
    |q| -> 1: each a = h + l, h a multiple of 2^-25 (held negated), so that
    1 - sum h^2 and each 2 h l are exact for fsum.  Elsewhere the plain 1 - s is
    within 13 u where |1 - s| >= s / 3; top = 1 is ball_gap's, <= 0 from s = 1
    on, as rounded."""
    s = w * w + x * x + y * y + z * z
    if not 0.75 <= s < top:
        return 1.0 - s
    wh = 201326592.0 - (w + 201326592.0)
    xh = 201326592.0 - (x + 201326592.0)
    yh = 201326592.0 - (y + 201326592.0)
    zh = 201326592.0 - (z + 201326592.0)
    wl, xl, yl, zl = w + wh, x + xh, y + yh, z + zh
    return math.fsum((1.0 - wh * wh - xh * xh - yh * yh - zh * zh,
                      (wh + wh) * wl, (xh + xh) * xl, (yh + yh) * yl, (zh + zh) * zl,
                      -(wl * wl + xl * xl + yl * yl + zl * zl)))


def cayley(q: ExtQuaternion) -> ExtQuaternion:
    """(1 + q)(1 - q)^-1 = ((1 - |q|^2) + 2 Im q) / |1 - q|^2: unit ball onto
    the half-space Re q > 0.  apply's pole test decides (it can hold only at
    |1 - q| < 3e-12); INFINITY, and |1 - q|^2 beyond [N2_TINY, N2_HUGE), are apply's."""
    if q is not INFINITY:
        w, x, y, z = q
        v = 1.0 - w
        n2 = v * v + x * x + y * y + z * z
        if N2_TINY <= n2 < N2_HUGE and (
                n2 > 1e-22 or math.hypot(v, x, y, z) > _POLE_EPS * (math.hypot(w, x, y, z) + 1.0)):
            return _new(Quaternion, (_one_minus_norm_sq(w, x, y, z) / n2,
                                     (x + x) / n2, (y + y) / n2, (z + z) / n2))
    return apply(CAYLEY, q)


def cayley_inv(q: ExtQuaternion) -> ExtQuaternion:
    """(q - 1)(q + 1)^-1: inverse of cayley."""
    return apply(CAYLEY_INV, q)


def ball_gap(q: Quaternion) -> float:
    """The ball's domain rule: 1 - |q|^2 where it is positive, exactly, else
    OutOfDomain; INFINITY, an inf and a nan component all fail it."""
    if q is not INFINITY:
        w, x, y, z = q  # not *q, which made distance_disc 25-30 % slower
        g = _one_minus_norm_sq(w, x, y, z, 1.0)
        if g > 0.0:
            return g
    raise OutOfDomain(f"{q} is not in the open unit ball")


def halfspace_re(q: Quaternion) -> float:
    """The half-space's domain rule: Re q where 0 < Re q < inf, else OutOfDomain;
    _require_finite completes it where an inf or nan imaginary part leads."""
    if q is not INFINITY and 0.0 < q[0] < math.inf:
        return q[0]
    raise OutOfDomain(f"{q} is not in the open half-space Re q > 0")


def _require_finite(*qs: Quaternion) -> None:
    for q in qs:
        if not is_finite(q):
            raise OutOfDomain(f"{q} is not in the open half-space Re q > 0")


def _require_distinct(q1: Quaternion, q2: Quaternion, tol: float | None) -> None:
    """The rule of a line of the ball: two points of the ball that do not coincide."""
    ball_gap(q1)
    ball_gap(q2)
    if coincident(q1, q2, tol):
        raise CoincidentPoints("a line needs two distinct points")


def normalizing_map(q1: Quaternion, q2: Quaternion) -> FLT:
    """The ball Moebius map sending q1 to 0 and q2 to a real t in (0, 1).

    Explicitly L(q) = lam1 (q - q1)(1 - conj(q1) q)^-1 lam2 with the unit
    factors lam1 = |q2 - q1| (q2 - q1)^-1 and
    lam2 = (1 - conj(q1) q2) / |1 - conj(q1) q2|.
    """
    _require_distinct(q1, q2, None)
    diff = q2 - q1
    lam1 = diff.inverse() * abs(diff)
    den = ONE - q1.conj() * q2
    lam2 = den * (1.0 / abs(den))
    # canonical parameters: alpha = lam1, beta = lam2^-1 = conj(lam2)
    return MobiusCanonical(lam1, lam2.conj(), q1).to_flt()


def _over_gap(num, x, y) -> tuple:
    """num * (ONE - x.conj() * y).inverse() on components, with the
    operators' operations in their order; inverse rescales out of range."""
    (nw, nx, ny, nz), (xw, xx, xy, xz), (yw, yx, yy, yz) = num, x, y
    # conj(x) y as Quaternion.__mul__ forms it, (-a) b being -(a b)
    w = 1.0 - (xw * yw + xx * yx + xy * yy + xz * yz)
    i = 0.0 - (xw * yx - xx * yw - xy * yz + xz * yy)
    j = 0.0 - (xw * yy + xx * yz - xy * yw - xz * yx)
    k = 0.0 - (xw * yz - xx * yy + xy * yx - xz * yw)
    n2 = w * w + i * i + j * j + k * k
    w, i, j, k = ((w / n2, -i / n2, -j / n2, -k / n2) if N2_TINY <= n2 < N2_HUGE
                  else _new(Quaternion, (w, i, j, k)).inverse())
    return (nw * w - nx * i - ny * j - nz * k,
            nw * i + nx * w + ny * k - nz * j,
            nw * j - nx * k + ny * w + nz * i,
            nw * k + nx * j - ny * i + nz * w)


def _direction(x: Quaternion, y: Quaternion) -> Quaternion:
    """u of the module docstring: m / |m|, where m is the image of y under
    the ball map that sends x to 0."""
    (xw, xx, xy, xz), (yw, yx, yy, yz) = x, y
    mw, mx, my, mz = _over_gap((yw - xw, yx - xx, yy - xy, yz - xz), x, y)
    s = 1.0 / math.hypot(mw, mx, my, mz)
    return _new(Quaternion, (mw * s, mx * s, my * s, mz * s))


def _end_beyond(x: Quaternion, y: Quaternion) -> Quaternion:
    """e(x, y) of the module docstring: the end beyond x of the line through y."""
    (xw, xx, xy, xz), u = x, _direction(x, y)
    uw, ux, uy, uz = u
    return _new(Quaternion, _over_gap((xw - uw, xx - ux, xy - uy, xz - uz), x, u))


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
    _require_distinct(q1, q2, tol)
    (w1, x1, y1, z1), (w2, x2, y2, z2) = q1, q2
    # a diameter exactly when 0 lies on the line, i.e. when conj(q1) q2 (as in
    # _over_gap) is real
    diam = math.hypot(w1 * x2 - x1 * w2 - y1 * z2 + z1 * y2,
                      w1 * y2 + x1 * z2 - y1 * w2 - z1 * x2,
                      w1 * z2 - x1 * y2 + y1 * x2 - z1 * w2) <= bound(
        math.hypot(w1, x1, y1, z1) * math.hypot(w2, x2, y2, z2), tol)
    return _new(GeodesicDisc, (q1, q2, _end_beyond(q2, q1), _end_beyond(q1, q2),
                               "Diameter" if diam else "Circle"))


def distance_disc(q1: Quaternion, q2: Quaternion) -> float:
    """Invariant distance of the ball; math.dist(q1, q2) is the hypot of the
    component differences, bit for bit."""
    g = ball_gap(q1) * ball_gap(q2)
    return math.asinh(math.dist(q1, q2) / math.sqrt(g))


def _length(m: float) -> float:
    if m < math.inf:
        return m
    raise NonFiniteResult(f"a tangent length of {m} is not a finite float")


def metric_disc(q: Quaternion, tau: Quaternion) -> float:
    """Length of the tangent vector tau at q: |tau| / (1 - |q|^2)."""
    return _length(abs(tau) / ball_gap(q))


def metric_halfspace(q: Quaternion, tau: Quaternion) -> float:
    """Length of the tangent vector tau at q: |tau| / (2 Re q), divided by
    Re q before halving where 2 Re q overflows."""
    w = halfspace_re(q)
    _require_finite(q)
    return _length(abs(tau) / (w + w) if w < 8.98846567431158e307 else abs(tau) / w * 0.5)


# -- sampled geodesics and numeric length ------------------------------


def _apply_matrix_to_reals(M: Mat2H, r):
    """Component planes (4, len(r)) of the images (a r + b)(c r + d)^-1 of the reals r."""
    import numpy as np
    (num, den), (n2, t) = _empty(2, 4, len(r)), _empty(2, len(r))
    for k, (a, b, c, d) in enumerate(zip(*M)):
        np.add(np.multiply(r, a, out=num[k]), b, out=num[k])
        np.add(np.multiply(r, c, out=den[k]), d, out=den[k])
    norm_sq_into(den, n2, t)
    np.negative(den[1:], out=den[1:])
    return qmul_into(num, np.divide(den, n2, out=den), _empty(4, len(r)), t)


def geodesic_sample_rows(q1: Quaternion, q2: Quaternion, n: int,
                         tol: float | None = None):
    """Component rows (n, 4) of n points along the line from q1 to q2,
    equally spaced in the invariant distance; endpoints are exact.  Each
    point is taken from its nearer end.  Bulk consumers can feed the rows
    straight to integrated_length_disc."""
    import numpy as np
    if n < 2:
        raise TooFewSamples("need at least two sample points")
    _require_distinct(q1, q2, tol)
    radii = np.tanh(np.linspace(0.0, 1.0, n) * distance_disc(q1, q2))
    h = (n + 1) // 2
    rows = np.empty((n, 4))
    # read backwards, the rows from h on lie at the distances radii[:n - h] from q2
    for x, y, part in ((q1, q2, rows[:h]), (q2, q1, rows[:h - 1:-1])):
        u = _direction(x, y)
        M = Mat2H(u, x, x.conj() * u, ONE)
        np.stack(_apply_matrix_to_reals(M, radii[:len(part)]), axis=1, out=part)
    rows[0], rows[-1] = q1, q2
    return rows


def integrated_length_disc(path) -> float:
    """Composite-midpoint length of a sampled ball path under the
    invariant line element |dq| / (1 - |q|^2).  On a geodesic sampled at
    equal distance h it is within h^2 / 3 relative (tests/test_hypgeo.py
    derives it) down to 1 - |q| = 1e-10; at 1e-13 the rounding of the rows
    themselves is the error, up to 1.37e-3 relative on 10,000 samples."""
    import numpy as np
    arr = np.asarray(path, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("path must be a sequence of quaternions")
    if len(arr) < 2:
        raise TooFewSamples("need at least two path samples")
    # the ball's rule, which only rows with |q|^2 >= 3/4 (or nan) can fail
    for row in arr[~(np.einsum("ij,ij->i", arr, arr) < 0.75)].tolist():
        ball_gap(row)
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
    x1, x2 = halfspace_re(q1), halfspace_re(q2)
    if coincident(q1, q2, tol):
        raise CoincidentPoints("a line needs two distinct points")
    d = (q2.x - q1.x, q2.y - q1.y, q2.z - q1.z)
    L = math.hypot(*d)
    if L == 0.0:
        return None
    if not L < math.inf:
        _require_finite(q1, q2)
        raise NonFiniteResult("the gap between the imaginary parts does not fit a float")
    r = (x2 - x1) / L
    y0 = 0.5 * L + (0.5 * r * x2 + 0.5 * r * x1)  # halved first: no overflow before y0's
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


def _arc_point(q1: Quaternion, arc, sigma: float, re: float = 0.0) -> ExtQuaternion:
    """The point of the arc at sigma, with real part re, its offset taken from
    the end on its side; sigma = -inf, +inf give the ends s3, s4 themselves."""
    e, y0, R, s3, s4 = arc
    g = math.exp(-abs(sigma))
    c = 0.5 + 0.5 * g * g
    off = s4 + R * g * g / c if sigma > 0.0 else s3 - R * g * g / c
    if abs(off) == math.inf:  # that end does not fit a float; nothing cancels on its side
        off = y0 - R * math.tanh(sigma)
    p = (re, q1.x + off * e[0], q1.y + off * e[1], q1.z + off * e[2])
    return _new(Quaternion, p) if is_finite(p) else INFINITY


def geodesic_halfspace(q1: Quaternion, q2: Quaternion,
                       tol: float | None = None) -> GeodesicHalfspace:
    arc = _arc(q1, q2, tol)
    _, x, y, z = q1
    if arc is None:
        foot = _new(Quaternion, (0.0, x, y, z))
        e3, e4 = (INFINITY, foot) if q2[0] > q1[0] else (foot, INFINITY)
        return _new(GeodesicHalfspace, (q1, q2, e3, e4, "HalfLine"))
    (ex, ey, ez), _, R, s3, s4 = arc
    # _arc_point at sigma = -/+inf: R g^2 / c is R * 0.0 (+0.0, or nan where R
    # overflowed); its fallback for an inf end would only redo _arc's far end
    off3, off4 = s3 - R * 0.0, s4 + R * 0.0
    e3 = (0.0, x + off3 * ex, y + off3 * ey, z + off3 * ez)
    e4 = (0.0, x + off4 * ex, y + off4 * ey, z + off4 * ez)
    return _new(GeodesicHalfspace, (q1, q2, _new(Quaternion, e3) if is_finite(e3) else INFINITY,
                                    _new(Quaternion, e4) if is_finite(e4) else INFINITY, "Arc"))


def _times_exp(x: float, t: float, f: float = 1.0) -> float:
    """x e^t f for f in [1/2, 2], in logs where e^t comes near the ends of
    float range; x meets the rest last, so it overflows only if x e^t f does."""
    if abs(t) < 700.0:
        return x * (math.exp(t) * f)
    return math.exp(math.log(x) + t + math.log(f))


def _walk(qa: Quaternion, qb: Quaternion, ts, tol: float | None) -> list:
    """The points of the line from qa toward qb at distances t / 2 from qa,
    for t in ts, at sigma = a - t; Re is Re qa cosh a / cosh(a - t)."""
    arc = _arc(qa, qb, tol)
    xa = qa.w
    if arc is None:  # Re q = Re qa e^(+-t) over the foot of qa
        sign = 1.0 if qb.w > xa else -1.0
        return [_new(Quaternion, (_times_exp(xa, sign * t), *qa[1:])) for t in ts]
    y0 = arc[1]
    if abs(y0 / xa) < math.inf:  # sinh a = y0 / xa
        a = math.asinh(y0 / xa)
    else:  # asinh r = log 2|r| to rounding
        a = math.copysign(math.log(2.0) + math.log(abs(y0)) - math.log(xa), y0)
    ca = 1.0 + math.exp(-2.0 * abs(a))
    pts = []
    for t in ts:
        b = a - t
        # cosh a / cosh b = e^(|a| - |b|) (1 + e^-2|a|) / (1 + e^-2|b|), where
        # |a| - |b| is +-t, free of a's rounding, when a and b share a sign
        d = abs(a) - abs(b) if a * b < 0.0 else math.copysign(t, a + b)
        re = _times_exp(xa, d, ca / (1.0 + math.exp(-2.0 * abs(b))))
        pts.append(_arc_point(qa, arc, b, re))
    return pts


def geodesic_sample_halfspace(q1: Quaternion, q2: Quaternion, n: int,
                              tol: float | None = None) -> list[Quaternion]:
    """n points along the half-space line from q1 to q2, equally spaced in
    the invariant distance; endpoints are exact.  Each point is taken from
    its nearer end, so a point is returned whenever it fits a float."""
    if n < 2:
        raise TooFewSamples("need at least two sample points")
    step = 2.0 * distance_halfspace(q1, q2) / (n - 1)
    h = (n + 1) // 2
    try:  # distance_halfspace took q1 and q2: a sample out of the half-space left float range
        inner = (_walk(q1, q2, [k * step for k in range(1, h)], tol)
                 + _walk(q2, q1, [k * step for k in range(n - 1 - h, 0, -1)], tol))
        for p in inner:
            halfspace_re(p)
    except (OverflowError, OutOfDomain):  # OverflowError: a Re taken in logs
        raise NonFiniteResult("a sample of the line does not fit a float") from None
    return [q1, *inner, q2]


def distance_halfspace(q1: Quaternion, q2: Quaternion) -> float:
    """Invariant distance of the half-space."""
    w1, w2 = halfspace_re(q1), halfspace_re(q2)
    s = math.sqrt(w1) * math.sqrt(w2)  # cannot underflow to 0
    gap = math.dist(q1, q2)  # |q1 - q2|, as in distance_disc
    if s < 2.2250738585072014e-308 or gap < 2.2250738585072014e-308:
        # Re q1 Re q2 < 2^-2044, so s lost digits, or the gap is subnormal.  The
        # quotient is free of scale, so the differences (exact where the gap is
        # subnormal) and real parts are taken at 2^600, exactly (or inf)
        x = math.hypot(*((a - b) * 2.0 ** 600 for a, b in zip(q1, q2))) / (
            math.sqrt(w1 * 2.0 ** 600) * math.sqrt(w2 * 2.0 ** 600)) * 0.5
    else:
        # |q1 - q2| is halved last, or first where it overflows (exactly, at
        # that scale)
        x = gap / s * 0.5 if gap < math.inf else math.hypot(
            *(0.5 * a - 0.5 * b for a, b in zip(q1, q2))) / s
    if not x < math.inf:  # also a nan, of an inf or nan imaginary part
        _require_finite(q1, q2)
        # asinh x = log 2x to rounding once x > 2^28; in logs, 2x cannot overflow
        return (math.log(2.0) + math.log(math.hypot(*(0.5 * a - 0.5 * b for a, b in zip(q1, q2))))
                - 0.5 * (math.log(w1) + math.log(w2)))
    return math.asinh(x)
