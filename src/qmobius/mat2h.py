"""2x2 matrices with quaternion entries.

The scalar field is noncommutative, so there is no ordinary determinant;
det_h below is the Dieudonne determinant, the nonnegative real

    det_h([[a, b], [c, d]]) = sqrt(|a|^2 |d|^2 + |c|^2 |b|^2 - 2 Re(c conj(a) b conj(d)))

which is multiplicative and vanishes exactly on the non-invertible
matrices.  For real or complex entries it reduces to |ad - bc|.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import InternalNumericError, Singular
from .quat import ONE, ZERO, Quaternion, _tols, isclose


class Mat2H(NamedTuple):
    a: Quaternion
    b: Quaternion
    c: Quaternion
    d: Quaternion

    @classmethod
    def identity(cls) -> "Mat2H":
        return cls(ONE, ZERO, ZERO, ONE)

    def __matmul__(self, other: "Mat2H") -> "Mat2H":
        a1, b1, c1, d1 = self
        a2, b2, c2, d2 = other
        return Mat2H(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                     c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)

    def transpose_conj(self) -> "Mat2H":
        """Conjugate transpose [[conj a, conj c], [conj b, conj d]]."""
        return Mat2H(self.a.conj(), self.c.conj(), self.b.conj(), self.d.conj())

    def scalar_mul(self, t: float) -> "Mat2H":
        return Mat2H(self.a * t, self.b * t, self.c * t, self.d * t)

    def __neg__(self) -> "Mat2H":
        return self.scalar_mul(-1.0)

    def entry_scale(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def close_to(self, other: "Mat2H", tol: float | None = None) -> bool:
        atol, rtol = _tols(tol)
        thr = atol + rtol * max(self.entry_scale(), other.entry_scale())
        return all(abs(p - q) <= thr for p, q in zip(self, other))

    def to_json(self) -> list[list[float]]:
        return [self.a.to_json(), self.b.to_json(), self.c.to_json(), self.d.to_json()]

    @classmethod
    def from_json(cls, data) -> "Mat2H":
        if not isinstance(data, (list, tuple)) or len(data) != 4:
            raise ValueError("matrix JSON must be a 4-element array of quaternions")
        return cls(*(Quaternion.from_json(entry) for entry in data))


# squared-norm sums below this have lost digits to underflow
_RAD_TINY = 2.0 ** -900


def _row_exponent(p: Quaternion, q: Quaternion) -> int:
    """e with 2^(e-1) <= the largest component modulus of the row < 2^e."""
    return math.frexp(max(abs(x) for x in (*p, *q)))[1]


def _ldexp_q(q: Quaternion, e: int) -> Quaternion:
    return Quaternion(*(math.ldexp(x, e) for x in q))


def det_h(A: Mat2H) -> float:
    """Dieudonne determinant; multiplicative and zero iff A is singular."""
    a, b, c, d = A
    t = a.norm_sq() * d.norm_sq() + c.norm_sq() * b.norm_sq()
    if not _RAD_TINY <= t < math.inf:
        # every radicand term takes one factor from each row, so scaling
        # row i by 2^-e_i is exact and scales det_h by 2^-(e_1 + e_2); the
        # components are scaled directly, since 2^-e_i may not be a float
        e1, e2 = _row_exponent(a, b), _row_exponent(c, d)
        if e1 or e2:  # the balanced matrix has e1 = e2 = 0: no deeper call
            balanced = det_h(Mat2H(_ldexp_q(a, -e1), _ldexp_q(b, -e1),
                                   _ldexp_q(c, -e2), _ldexp_q(d, -e2)))
            try:
                return math.ldexp(balanced, e1 + e2)
            except OverflowError:
                return math.inf
    rad = t - 2.0 * (c * a.conj() * b * d.conj()).w
    if rad < 0.0:
        # the radicand is a square in exact arithmetic; tiny negatives are
        # cancellation noise, anything larger is a genuine bug
        atol, rtol = _tols(None)
        if -rad <= atol + rtol * t:
            rad = 0.0
        else:
            raise InternalNumericError(
                f"determinant radicand {rad} negative beyond tolerance")
    return math.sqrt(rad)


# -- batched kernels: (n, 4, 4) stacks of entries (a, b, c, d) by components
# (w, x, y, z), computed on contiguous (4, 4, n) component planes


def _planes(M):
    """The planes of a stack; no copy when M is a transposed view of them."""
    import numpy as np
    return np.ascontiguousarray(M.transpose(1, 2, 0), dtype=float)


def _norm_sq(p):
    """|q|^2 of a quaternion given as four component planes."""
    w, x, y, z = p
    return w * w + x * x + y * y + z * z


def qmul_planes(p, q) -> tuple:
    """Hamilton product of component planes, in Quaternion.__mul__'s order."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def mat_mul_many(A, B):
    """Matrix product, entry for entry equal to A @ B; returns a transposed
    view of planes, which det_h_many and mat_mul_many read without a copy."""
    import numpy as np
    a1, b1, c1, d1 = _planes(A)
    a2, b2, c2, d2 = _planes(B)
    out = np.empty((4, 4, a1.shape[1]))
    terms = ((a1, a2, b1, c2), (a1, b2, b1, d2), (c1, a2, d1, c2), (c1, b2, d1, d2))
    for entry, (l1, r1, l2, r2) in zip(out, terms):
        for comp, s, t in zip(entry, qmul_planes(l1, r1), qmul_planes(l2, r2)):
            np.add(s, t, out=comp)
    return out.transpose(2, 0, 1)


def _det_h_planes(a, b, c, d) -> tuple:
    """det_h of each matrix given as entry planes, with the radicand and the
    clamp of the scalar, and the radicand's t = |a|^2|d|^2 + |c|^2|b|^2."""
    import numpy as np
    t = _norm_sq(a) * _norm_sq(d) + _norm_sq(c) * _norm_sq(b)
    conj = np.array([[1.0], [-1.0], [-1.0], [-1.0]])
    pw, px, py, pz = qmul_planes(c, a * conj)
    rw, rx, ry, rz = qmul_planes(b, d * conj)
    rad = t - 2.0 * (pw * rw - px * rx - py * ry - pz * rz)
    neg = rad < 0.0
    if np.any(neg):
        atol, rtol = _tols(None)
        bound = atol + rtol * t
        if np.any(-rad[neg] > bound[neg]):
            raise InternalNumericError(
                "determinant radicand negative beyond tolerance")
        rad = np.where(neg, 0.0, rad)
    return np.sqrt(rad), t


def det_h_many(M):
    """det_h of each matrix, with the radicand, the clamp and the rescue of
    the scalar; overflow and invalid operations stay silent, as there."""
    import numpy as np
    P = _planes(M)
    with np.errstate(over="ignore", invalid="ignore"):
        det, t = _det_h_planes(*P)
        redo = ~((t >= _RAD_TINY) & (t < math.inf))
        if np.any(redo):
            # det_h's rescue on those rows, e the exponent of rows a, b and c, d
            sub = P[:, :, redo]
            e = np.frexp(np.abs(sub).reshape(2, 8, -1).max(axis=1))[1]
            balanced = np.ldexp(sub, -np.repeat(e, 2, axis=0)[:, None, :])
            det[redo] = np.ldexp(_det_h_planes(*balanced)[0], e.sum(axis=0))
    return det


# Cramer-type inverse formulas amplify rounding roughly with the square of
# the conditioning, hence the quadratic scale in the singularity gate.
SINGULAR_REL = 1e-6


def inverse_form_a(A: Mat2H) -> Mat2H:
    """Inverse via the pivot entry a (requires a != 0)."""
    a, b, c, d = A
    ai = a.inverse()
    s = (d - c * ai * b).inverse()
    return Mat2H(ai + ai * b * s * c * ai, -(ai * b * s),
                 -(s * c * ai), s)


def inverse_form_b(A: Mat2H) -> Mat2H:
    """Inverse via the pivot entry b (requires b != 0)."""
    a, b, c, d = A
    bi = b.inverse()
    s = (c - d * bi * a).inverse()
    return Mat2H(-(s * d * bi), s,
                 bi + bi * a * s * d * bi, -(bi * a * s))


def inverse(A: Mat2H) -> Mat2H:
    scale = A.entry_scale()
    if det_h(A) <= SINGULAR_REL * scale * scale:
        raise Singular(f"matrix with det_h {det_h(A)} is numerically singular")
    # pivot on the larger entry of the first row: scale-invariant, and
    # that entry is nonzero past the gate
    if abs(A.a) >= abs(A.b):
        return inverse_form_a(A)
    return inverse_form_b(A)


def normalize(A: Mat2H) -> Mat2H:
    """Scale A by a positive real so that det_h becomes 1."""
    dh = det_h(A)
    scale = A.entry_scale()
    if dh <= SINGULAR_REL * scale * scale:
        raise Singular("cannot normalize a numerically singular matrix")
    return A.scalar_mul(1.0 / math.sqrt(dh))


class GroupTag(Enum):
    GL2H = "GL2H"
    SL2H = "SL2H"
    SP11 = "Sp11"
    SL_HPLUS = "SLHplus"
    CENTER_GL = "CenterGL"
    CENTER_SL = "CenterSL"


H_FORM = Mat2H(ONE, ZERO, ZERO, -ONE)     # diag(1, -1)
K_FORM = Mat2H(ZERO, ONE, ONE, ZERO)      # antidiag(1, 1)

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
    atol, rtol = _tols(tol)
    tags: set[GroupTag] = set()
    scale = A.entry_scale()
    dh = det_h(A)

    if dh > atol:
        tags.add(GroupTag.GL2H)
    if isclose(dh, 1.0, tol):
        tags.add(GroupTag.SL2H)

    a, b, c, d = A
    ac, cc = a.conj(), c.conj()
    thr = atol + rtol * (1.0 + scale * scale)
    if (abs(a.norm_sq() - c.norm_sq() - 1.0) <= thr
            and abs(ac * b - cc * d) <= thr
            and abs(b.norm_sq() - d.norm_sq() + 1.0) <= thr):
        tags.add(GroupTag.SP11)
    if (abs(2.0 * (cc * a).w) <= thr
            and abs(cc * b + ac * d - 1.0) <= thr
            and abs(2.0 * (d.conj() * b).w) <= thr):
        tags.add(GroupTag.SL_HPLUS)

    thr1 = atol + rtol * (1.0 + scale)
    if (abs(b) <= thr1 and abs(c) <= thr1 and abs(a - d) <= thr1
            and a.im_norm() <= thr1 and abs(a) > atol):
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
