"""2x2 matrices with quaternion entries.

The scalar field is noncommutative, so there is no ordinary determinant;
det_h below is the Dieudonne determinant, the nonnegative real

    det_h([[a, b], [c, d]]) = |a| |d - c a^-1 b|   (= |b| |c - d b^-1 a|)

whose square is |a|^2 |d|^2 + |c|^2 |b|^2 - 2 Re(c conj(a) b conj(d)); it is
multiplicative and vanishes exactly on the non-invertible matrices.  For
real or complex entries it reduces to |ad - bc|.

@, scalar_mul (so normalize), entry_scale, inverse_form_a (so both inverse forms)
and classify's form tests run on float components, with the Quaternion operators'
operations in their order, so each result is bit-identical to its operator
expression (pinned in tests/test_mat2h.py).
"""

from __future__ import annotations

import math
from enum import Enum
from math import hypot
from typing import NamedTuple

from .errors import NonFiniteResult, Singular
from .quat import N2_HUGE, N2_TINY, ONE, ZERO, Quaternion, _ldexp_q, _new, bound, isclose


class Mat2H(NamedTuple):
    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    @classmethod
    def identity(cls) -> "Mat2H":
        return cls(ONE, ZERO, ZERO, ONE)

    def __matmul__(self, other: "Mat2H") -> "Mat2H":
        # each entry p q + r s, the products in Quaternion.__mul__'s order
        (aw, ax, ay, az), (bw, bx, by, bz), (cw, cx, cy, cz), (dw, dx, dy, dz) = self
        (ew, ex, ey, ez), (fw, fx, fy, fz), (gw, gx, gy, gz), (hw, hx, hy, hz) = other
        return _new(Mat2H, (
            _new(Quaternion, (
                aw * ew - ax * ex - ay * ey - az * ez + (bw * gw - bx * gx - by * gy - bz * gz),
                aw * ex + ax * ew + ay * ez - az * ey + (bw * gx + bx * gw + by * gz - bz * gy),
                aw * ey - ax * ez + ay * ew + az * ex + (bw * gy - bx * gz + by * gw + bz * gx),
                aw * ez + ax * ey - ay * ex + az * ew + (bw * gz + bx * gy - by * gx + bz * gw))),
            _new(Quaternion, (
                aw * fw - ax * fx - ay * fy - az * fz + (bw * hw - bx * hx - by * hy - bz * hz),
                aw * fx + ax * fw + ay * fz - az * fy + (bw * hx + bx * hw + by * hz - bz * hy),
                aw * fy - ax * fz + ay * fw + az * fx + (bw * hy - bx * hz + by * hw + bz * hx),
                aw * fz + ax * fy - ay * fx + az * fw + (bw * hz + bx * hy - by * hx + bz * hw))),
            _new(Quaternion, (
                cw * ew - cx * ex - cy * ey - cz * ez + (dw * gw - dx * gx - dy * gy - dz * gz),
                cw * ex + cx * ew + cy * ez - cz * ey + (dw * gx + dx * gw + dy * gz - dz * gy),
                cw * ey - cx * ez + cy * ew + cz * ex + (dw * gy - dx * gz + dy * gw + dz * gx),
                cw * ez + cx * ey - cy * ex + cz * ew + (dw * gz + dx * gy - dy * gx + dz * gw))),
            _new(Quaternion, (
                cw * fw - cx * fx - cy * fy - cz * fz + (dw * hw - dx * hx - dy * hy - dz * hz),
                cw * fx + cx * fw + cy * fz - cz * fy + (dw * hx + dx * hw + dy * hz - dz * hy),
                cw * fy - cx * fz + cy * fw + cz * fx + (dw * hy - dx * hz + dy * hw + dz * hx),
                cw * fz + cx * fy - cy * fx + cz * fw + (dw * hz + dx * hy - dy * hx + dz * hw)))))

    def transpose_conj(self) -> "Mat2H":
        """Conjugate transpose [[conj a, conj c], [conj b, conj d]]."""
        return Mat2H(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def scalar_mul(self, t: float) -> "Mat2H":
        (aw, ax, ay, az), (bw, bx, by, bz), (cw, cx, cy, cz), (dw, dx, dy, dz) = self
        return _new(Mat2H, (_new(Quaternion, (aw * t, ax * t, ay * t, az * t)),
                            _new(Quaternion, (bw * t, bx * t, by * t, bz * t)),
                            _new(Quaternion, (cw * t, cx * t, cy * t, cz * t)),
                            _new(Quaternion, (dw * t, dx * t, dy * t, dz * t))))

    def __neg__(self) -> "Mat2H":
        return self.scalar_mul(-1.0)

    def entry_scale(self) -> float:
        (aw, ax, ay, az), (bw, bx, by, bz), (cw, cx, cy, cz), (dw, dx, dy, dz) = self
        return max(hypot(aw, ax, ay, az), hypot(bw, bx, by, bz),
                   hypot(cw, cx, cy, cz), hypot(dw, dx, dy, dz))

    def close_to(self, other: "Mat2H", tol: float | None = None) -> bool:
        thr = bound(max(self.entry_scale(), other.entry_scale()), tol)
        return all(abs(p - q) <= thr for p, q in zip(self, other))

    def to_json(self) -> list[list[float]]:
        return [self.a.to_json(), self.b.to_json(), self.c.to_json(), self.d.to_json()]

    @classmethod
    def from_json(cls, data) -> "Mat2H":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("matrix JSON must be a 4-element array of quaternions")
        return cls(*(Quaternion.from_json(entry) for entry in data))


def det_h(A: Mat2H) -> float:
    """Dieudonne determinant; multiplicative and zero iff A is singular."""
    (aw, ax, ay, az), (bw, bx, by, bz), (cw, cx, cy, cz), (dw, dx, dy, dz) = A
    s, t = hypot(aw, ax, ay, az), hypot(bw, bx, by, bz)
    if s < t:  # pivot on the larger of a, b, as inverse does; a column swap keeps det_h
        aw, ax, ay, az, bw, bx, by, bz, cw, cx, cy, cz, dw, dx, dy, dz, s = (
            bw, bx, by, bz, aw, ax, ay, az, dw, dx, dy, dz, cw, cx, cy, cz, t)
    if not s:  # a whole row is zero
        return 0.0
    # p = c conj(u) with the unit u = a / |a|, so |a| |d - c a^-1 b| = ||a| d - p b|:
    # no term exceeds |a||d| or |c||b|, and none leaves float range before those do
    aw, ax = aw / s, ax / s  # pairs: a four-tuple would cost a tuple per call
    ay, az = ay / s, az / s
    pw = cw * aw + cx * ax + cy * ay + cz * az
    px = -cw * ax + cx * aw - cy * az + cz * ay
    py = -cw * ay + cx * az + cy * aw - cz * ax
    pz = -cw * az - cx * ay + cy * ax + cz * aw
    det = hypot(s * dw - (pw * bw - px * bx - py * by - pz * bz),
                s * dx - (pw * bx + px * bw + py * bz - pz * by),
                s * dy - (pw * by - px * bz + py * bw + pz * bx),
                s * dz - (pw * bz + px * by - py * bx + pz * bw))
    if det < math.inf:
        return det
    # |a||d| or |c||b| overflowed: |a| |d - p (b / |a|)| has terms at most |d| and |c|
    bw, bx, by, bz = bw / s, bx / s, by / s, bz / s
    return s * hypot(dw - (pw * bw - px * bx - py * by - pz * bz),
                     dx - (pw * bx + px * bw + py * bz - pz * by),
                     dy - (pw * by - px * bz + py * bw + pz * bx),
                     dz - (pw * bz + px * by - py * bx + pz * bw))


# -- batched kernels on (n, 4, 4) stacks of entries (a, b, c, d) by components (w, x, y, z):
# each allocates its output and one scratch block per call, of contiguous (4, 4, n) component
# planes, and writes every operation into them (pinned bit for bit in tests/test_mat2h.py)


def _empty(*shape):
    """np.empty(shape) from a 64-byte cache line, as are its (n,) planes when n % 8 == 0:
    numpy's vector stores take about twice as long where they straddle two lines."""
    import numpy as np
    buf = np.empty(math.prod(shape) + 7)  # 8-byte aligned, so 0 to 7 elements from a line
    return buf[-buf.ctypes.data % 64 // 8:][:math.prod(shape)].reshape(shape)


def _planes(k, *stacks):
    """The planes of each stack, then k scratch planes, from one block; a stack is copied,
    in runs of 256 rows that stay in L1, unless it is a transposed view of float planes."""
    views = [M.transpose(1, 2, 0) for M in stacks]
    copy = [j for j, v in enumerate(views) if not (v.flags.c_contiguous and v.dtype == float)]
    m = 16 * len(copy)
    S = _empty(m + k, views[0].shape[2])
    for j, P in zip(copy, S[:m].reshape(len(copy), *views[0].shape)):
        for i in range(0, P.shape[2], 256):
            P[..., i:i + 256] = views[j][..., i:i + 256]
        views[j] = P
    return (*views, S[m:])


def qmul_planes(p, q) -> tuple:
    """Hamilton product in Quaternion.__mul__'s order, for inverse_form_a and classify."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def qmul_into(p, q, out, t):
    """out = p q on component planes with t the scratch plane, qmul_planes'
    operations in their order; out and t share no memory with p, q or each other."""
    import numpy as np
    (w1, x1, y1, z1), (w2, x2, y2, z2), add, sub = p, q, np.add, np.subtract
    for o, ((l, r), *terms) in zip(out, (((w1, w2), (sub, x1, x2), (sub, y1, y2), (sub, z1, z2)),
                                         ((w1, x2), (add, x1, w2), (add, y1, z2), (sub, z1, y2)),
                                         ((w1, y2), (sub, x1, z2), (add, y1, w2), (add, z1, x2)),
                                         ((w1, z2), (add, x1, y2), (sub, y1, x2), (add, z1, w2)))):
        np.multiply(l, r, out=o)
        for op, l, r in terms:
            op(o, np.multiply(l, r, out=t), out=o)
    return out


def norm_sq_into(p, out, t):
    """out = |p|^2 = w w + x x + y y + z z, in that order; t is the scratch plane."""
    import numpy as np
    np.multiply(p[0], p[0], out=out)
    for k in p[1:]:
        np.add(out, np.multiply(k, k, out=t), out=out)
    return out


def mat_mul_many(A, B):
    """Matrix product, entry for entry equal to A @ B; returns a transposed
    view of planes, which det_h_many and mat_mul_many read without a copy."""
    (a1, b1, c1, d1), (a2, b2, c2, d2), S = _planes(5, A, B)
    s, t, out = S[:4], S[4], _empty(4, 4, S.shape[1])  # s: the second product
    terms = ((a1, a2, b1, c2), (a1, b2, b1, d2), (c1, a2, d1, c2), (c1, b2, d1, d2))
    for entry, (l1, r1, l2, r2) in zip(out, terms):
        qmul_into(l1, r1, entry, t)
        entry += qmul_into(l2, r2, s, t)
    return out.transpose(2, 0, 1)


def det_h_many(M):
    """det_h of each matrix by det_h's form pivoted on a, ||a| d - p b|.  Rows
    where |a|^2, or det_h^2 unless det_h = 0, leaves [N2_TINY, N2_HUGE), or
    where |a|^2 < 2^-52 |b|^2, are taken by det_h itself."""
    import numpy as np
    P, S = _planes(12, M)
    (a, b, c, d), ((a2, s, t, x2), u, p) = P, S.reshape(3, 4, -1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.sqrt(norm_sq_into(a, a2, t), out=s)
        np.divide(a, s, out=u)
        np.negative(u[1:], out=u[1:])  # u = conj(a / |a|)
        qmul_into(c, u, p, t)
        X = qmul_into(p, b, u, t)  # p b, written over the spent u
        np.subtract(np.multiply(s, d, out=p), X, out=X)  # |a| d - p b
        norm_sq_into(X, x2, t)
        redo = ~((a2 >= N2_TINY) & (a2 < N2_HUGE) & (x2 < N2_HUGE)
                 & (np.multiply(a2, 2 ** 52, out=s) >= norm_sq_into(b, p[0], t)))
        tiny = np.flatnonzero(x2 < N2_TINY)  # an exact X = 0 is det_h 0 here
        redo[tiny[X[:, tiny].any(axis=0)]] = True
        det = np.sqrt(x2)
    for i in np.flatnonzero(redo):
        det[i] = det_h(Mat2H(*(Quaternion(*e) for e in P[:, :, i].tolist())))
    return det


# Cramer-type inverse formulas amplify rounding roughly with the square of
# the conditioning, hence the quadratic scale in the singularity gate.
SINGULAR_REL = 1e-6


def inverse_form_a(A: Mat2H) -> Mat2H:
    """Inverse via the pivot entry a (requires a != 0), with s = (d - c a^-1 b)^-1."""
    a, b, c, (dw, dx, dy, dz) = A
    aw, ax, ay, az = ai = a.inverse()
    pw, px, py, pz = qmul_planes(qmul_planes(c, ai), b)
    s = _new(Quaternion, (dw - pw, dx - px, dy - py, dz - pz)).inverse()
    uw, ux, uy, uz = u = qmul_planes(qmul_planes(ai, b), s)  # the left factor of two entries
    pw, px, py, pz = qmul_planes(qmul_planes(u, c), ai)
    qw, qx, qy, qz = qmul_planes(qmul_planes(s, c), ai)
    return _new(Mat2H, (_new(Quaternion, (aw + pw, ax + px, ay + py, az + pz)),
                        _new(Quaternion, (-uw, -ux, -uy, -uz)),
                        _new(Quaternion, (-qw, -qx, -qy, -qz)), s))


def inverse_form_b(A: Mat2H) -> Mat2H:
    """Inverse via the pivot entry b (requires b != 0): inverse_form_a of the
    column-swapped matrix, rows swapped, as (A P)^-1 = P A^-1 for P = antidiag(1, 1)."""
    a, b, c, d = inverse_form_a(_new(Mat2H, (A.b, A.a, A.d, A.c)))
    return _new(Mat2H, (c, d, a, b))


def _ldexp_m(A: Mat2H, e: int) -> Mat2H:
    return Mat2H(*(_ldexp_q(q, e) for q in A))


def rescale(A: Mat2H) -> tuple[Mat2H, int, float, float]:
    """(B, e, B's entry scale, det_h(B)) for B = A 2^-e, which inverse, normalize
    and flt.is_constant judge, so each decides the same at every scale: e puts B's
    scale in [1/2, 1) where A's squared scale leaves [N2_TINY, N2_HUGE), else 0."""
    scale = A.entry_scale()
    e = 0 if N2_TINY <= scale * scale < N2_HUGE else math.frexp(scale)[1]
    if e:
        A = _ldexp_m(A, -e)
        scale = A.entry_scale()
    return A, e, scale, det_h(A)


def singular(dh: float, scale: float) -> bool:
    """The one singularity rule, of inverse, normalize and flt.is_constant:
    det_h <= SINGULAR_REL scale^2 (also a nan det_h, of non-finite entries),
    on rescale's B.  It takes det_h rather than A because normalize divides
    by the det_h it judges."""
    return not dh > SINGULAR_REL * scale * scale


def inverse(A: Mat2H) -> Mat2H:
    B, e, scale, dh = rescale(A)
    if singular(dh, scale):
        raise Singular(f"matrix with det_h {dh} is numerically singular")
    # pivot on the larger entry of the first row: scale-invariant, and
    # that entry is nonzero past the gate
    Bi = inverse_form_a(B) if abs(B.a) >= abs(B.b) else inverse_form_b(B)
    try:
        return _ldexp_m(Bi, -e) if e else Bi
    except OverflowError:
        raise NonFiniteResult(f"an inverse of scale 2^{-e} overflows") from None


def normalize(A: Mat2H) -> Mat2H:
    """Scale A by a positive real so that det_h becomes 1; being projective,
    it scales rescale's B."""
    B, _, scale, dh = rescale(A)
    if singular(dh, scale):
        raise Singular("cannot normalize a numerically singular matrix")
    return B.scalar_mul(1.0 / math.sqrt(dh))


class GroupTag(Enum):
    GL2H = "GL2H"
    SL2H = "SL2H"
    SP11 = "Sp11"
    SL_HPLUS = "SLHplus"
    CENTER_GL = "CenterGL"
    CENTER_SL = "CenterSL"


# matrix of the Cayley map q -> (1 + q)(1 - q)^-1 from the ball to the
# half-space; its inverse is half the transpose
CAYLEY = Mat2H(ONE, ONE, -ONE, ONE)
CAYLEY_INV = Mat2H(ONE, -ONE, ONE, ONE).scalar_mul(0.5)


def classify(A: Mat2H, tol: float | None = None) -> set[GroupTag]:
    """Group memberships of A, as a set of tags.

    Membership in the groups preserving diag(1, -1) (Sp11) and antidiag(1, 1)
    (SLHplus) is decided on the distinct entries of conj-transpose(A) F A,
    F the form, taken in closed form.
    """
    tags: set[GroupTag] = set()
    scale = A.entry_scale()
    dh = det_h(A)
    thr1 = bound(scale, tol)

    # det_h against scale^2, taken as det_h / scale against scale: neither overflows
    if scale and dh / scale > thr1:
        tags.add(GroupTag.GL2H)
    if isclose(dh, 1.0, tol):
        tags.add(GroupTag.SL2H)

    a, b, c, d = A
    (aw, ax, ay, az), (bw, bx, by, bz), (cw, cx, cy, cz), (dw, dx, dy, dz) = A
    ac, cc = (aw, -ax, -ay, -az), (cw, -cx, -cy, -cz)
    thr = bound(1.0 + scale * scale, tol)  # the terms |a|^2, |c|^2 and 1
    if abs(aw * aw + ax * ax + ay * ay + az * az - (cw * cw + cx * cx + cy * cy + cz * cz)
           - 1.0) <= thr:
        (pw, px, py, pz), (qw, qx, qy, qz) = qmul_planes(ac, b), qmul_planes(cc, d)
        if (hypot(pw - qw, px - qx, py - qy, pz - qz) <= thr
                and abs(bw * bw + bx * bx + by * by + bz * bz
                        - (dw * dw + dx * dx + dy * dy + dz * dz) + 1.0) <= thr):
            tags.add(GroupTag.SP11)
    # Re(conj(c) a) and Re(conj(d) b) are the dot products of the components
    if abs(2.0 * (cw * aw + cx * ax + cy * ay + cz * az)) <= thr:
        (pw, px, py, pz), (qw, qx, qy, qz) = qmul_planes(cc, b), qmul_planes(ac, d)
        if (hypot(pw + qw - 1.0, px + qx, py + qy, pz + qz) <= thr
                and abs(2.0 * (dw * bw + dx * bx + dy * by + dz * bz)) <= thr):
            tags.add(GroupTag.SL_HPLUS)

    if (abs(b) <= thr1 and abs(c) <= thr1 and abs(a - d) <= thr1
            and a.im_norm() <= thr1 and any(a)):
        tags.add(GroupTag.CENTER_GL)
        if A.close_to(Mat2H.identity(), tol) or A.close_to(-Mat2H.identity(), tol):
            tags.add(GroupTag.CENTER_SL)
    return tags


def cayley_conjugate(A: Mat2H) -> Mat2H:
    """C^-1 A C: carries half-space matrices to ball matrices."""
    return CAYLEY_INV @ A @ CAYLEY


def cayley_conjugate_inv(M: Mat2H) -> Mat2H:
    """C M C^-1: inverse of cayley_conjugate."""
    return CAYLEY @ M @ CAYLEY_INV
