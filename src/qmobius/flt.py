"""Fractional linear transformations q -> (a q + b)(c q + d)^-1 of H u {inf}.

An invertible coefficient matrix induces a bijection of H u {inf}; two
matrices induce the same map exactly when they differ by a nonzero real
factor.  FLT therefore stores the matrix normalized to det_h = 1, which
leaves only a sign ambiguity.
"""

from __future__ import annotations

from itertools import chain
from math import hypot, inf
from typing import NamedTuple, Union

from . import mat2h as _m
from .errors import (BothZero, CoincidentPoints, ConstraintViolation, NonFiniteResult,
                     NonImaginaryShift, NotSp11, PoleInput, ZeroD)
from .mat2h import GroupTag, Mat2H, classify, normalize, rescale, singular
from .quat import (I, J, K, ONE, TOL, ZERO, Quaternion, _exponent, _ldexp_q, _new,
                   coincident, is_finite, negligible, times_inverse)


class _Infinity:
    """The single point at infinity compactifying H."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()
ExtQuaternion = Union[Quaternion, _Infinity]


def is_infinity(v) -> bool:
    return v is INFINITY


def ext_to_json(v: ExtQuaternion):
    return "inf" if v is INFINITY else v.to_json()


def ext_from_json(data) -> ExtQuaternion:
    return INFINITY if data == "inf" else Quaternion.from_json(data)


# pole threshold, relative to |c||q| + |d| (at INFINITY, to |a| + |d|)
_POLE_EPS = 1e-12


def apply(f, q: ExtQuaternion) -> ExtQuaternion:
    """Evaluate the map of f (an FLT or a raw Mat2H) at q.

    Poles map to INFINITY; INFINITY maps to a c^-1, or stays at INFINITY
    when c = 0.  A point or raw matrix entry with an inf or nan component is NonFiniteResult.
    """
    raw = not isinstance(f, FLT)
    M = f if raw else f.matrix
    (aw, ax, ay, az), (bw, bx, by, bz), (cw, cx, cy, cz), (dw, dx, dy, dz) = M
    # a raw matrix's 16 components are scanned only where their hypot is not finite
    if raw and not hypot(aw, ax, ay, az, bw, bx, by, bz,
                         cw, cx, cy, cz, dw, dx, dy, dz) < inf and not is_finite(chain(*f)):
        raise NonFiniteResult(f"the matrix {f} has an inf or nan component")
    if q is INFINITY:  # a c^-1 in the operators' order
        size = hypot(aw, ax, ay, az) + hypot(dw, dx, dy, dz)
        if hypot(cw, cx, cy, cz) <= _POLE_EPS * size:
            # where |a| + |d| overflowed, test and value are taken on M 2^-e, the same map
            return INFINITY if size < inf else apply(_m._ldexp_m(M, -_exponent(chain(*M))), q)
        return _new(Quaternion, times_inverse(aw, ax, ay, az, cw, cx, cy, cz))
    # (a q + b)(c q + d)^-1 on components: each operation is the one the
    # Quaternion operators perform, in their order, so the result is bit-
    # identical to that expression; e = c q + d, n = a q + b
    qw, qx, qy, qz = q
    ew = cw * qw - cx * qx - cy * qy - cz * qz + dw
    ex = cw * qx + cx * qw + cy * qz - cz * qy + dx
    ey = cw * qy - cx * qz + cy * qw + cz * qx + dy
    ez = cw * qz + cx * qy - cy * qx + cz * qw + dz
    scale = hypot(cw, cx, cy, cz) * hypot(qw, qx, qy, qz) + hypot(dw, dx, dy, dz)
    if not hypot(ew, ex, ey, ez) > _POLE_EPS * scale:  # where a nan lands too
        if not is_finite(q):
            raise NonFiniteResult(f"{q} has an inf or nan component")
        if scale < inf:
            return INFINITY
        # a term of the test overflowed, or met inf * 0.0.  At q = 0, n = b and
        # e = d; else, with q = 2^t p and 2^k just past the test's larger term,
        # test and value are taken on n 2^-k = a 2^(t-k) p + b 2^-k and
        # e 2^-k = c 2^(t-k) p + d 2^-k, whose test terms add up to less than 6
        # and to at least 2^-52, so the e^-1 of a point that passes it fits a float
        a, b, c, d = M
        if not any(q):
            return _new(Quaternion, times_inverse(*b, *d)) if any(d) else INFINITY
        t = _exponent(q)
        k = max(_exponent(c) + t, _exponent(d)) if any(c) else _exponent(d)
        try:
            M = Mat2H(_ldexp_q(a, t - k), _ldexp_q(b, -k), _ldexp_q(c, t - k), _ldexp_q(d, -k))
        except OverflowError:  # a's or b's part of n alone leaves float range
            raise NonFiniteResult(f"the image of {q} does not fit a float") from None
        return apply(M, _ldexp_q(q, -t))
    return _new(Quaternion, times_inverse(
        aw * qw - ax * qx - ay * qy - az * qz + bw,
        aw * qx + ax * qw + ay * qz - az * qy + bx,
        aw * qy - ax * qz + ay * qw + az * qx + by,
        aw * qz + ax * qy - ay * qx + az * qw + bz, ew, ex, ey, ez))


class FLT:
    """A fractional linear transformation, stored as a det_h = 1 matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mat2H):
        self.matrix = normalize(matrix)

    @classmethod
    def identity(cls) -> "FLT":
        return cls(Mat2H.identity())

    def __call__(self, q: ExtQuaternion) -> ExtQuaternion:
        return apply(self, q)

    def inverse(self) -> "FLT":
        return FLT(_m.inverse(self.matrix))

    def compose(self, other: "FLT") -> "FLT":
        """The map applying other first, then self."""
        return FLT(self.matrix @ other.matrix)

    def same_map(self, other: "FLT") -> bool:
        """Map equality; normalized matrices agree up to an overall sign."""
        M, N = self.matrix, other.matrix
        return M.close_to(N) or M.close_to(-N)

    def __repr__(self):
        return f"FLT({self.matrix!r})"


def is_constant(A: Mat2H) -> bool:
    """Whether the formula (a q + b)(c q + d)^-1 collapses to one value.

    This happens exactly when det_h(A) = 0; the constant value is then
    b d^-1 (or a c^-1 when d = 0).  The gate is mat2h.singular, the rule
    of inverse and normalize, so a matrix is a constant map exactly when
    FLT rejects it; det_h of an exactly rank-one matrix evaluates to a few
    machine epsilon times the squared entry scale, far below the gate.
    """
    B, _, scale, dh = rescale(A)
    if negligible(max(abs(B.c), abs(B.d)), scale):
        raise BothZero("c = d = 0 leaves the map undefined everywhere")
    return singular(dh, scale)


# -- generators ---------------------------------------------------------


# a generator equals only one of its own type: Translation(q) != Rotation(q)
def _eq(self, other):
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other):
    return not _eq(self, other)


def _hash(self):
    return hash((type(self), *self))


class Translation(NamedTuple):
    b: Quaternion
    __eq__, __ne__, __hash__ = _eq, _ne, _hash


class Rotation(NamedTuple):
    a: Quaternion  # unit modulus; acts by left multiplication
    __eq__, __ne__, __hash__ = _eq, _ne, _hash


class Dilation(NamedTuple):
    r: float  # positive real factor
    __eq__, __ne__, __hash__ = _eq, _ne, _hash


class Inversion(NamedTuple):
    __eq__, __ne__, __hash__ = _eq, _ne, _hash


Generator = Union[Translation, Rotation, Dilation, Inversion]


def apply_generator(g: Generator, q: ExtQuaternion) -> ExtQuaternion:
    if not is_finite(chain(*generator_matrix(g))):  # as apply of the matrix decides
        raise NonFiniteResult(f"{g} has an inf or nan parameter")
    if q is INFINITY:
        return ZERO if isinstance(g, Inversion) else INFINITY
    if not is_finite(q):
        raise NonFiniteResult(f"{q} has an inf or nan component")
    if isinstance(g, Translation):
        return q + g.b
    if isinstance(g, Rotation):
        return g.a * q
    if isinstance(g, Dilation):
        return q * g.r
    return q.inverse() if any(q) else INFINITY  # as in apply, only 0 is a pole


def apply_generators(gens, q: ExtQuaternion) -> ExtQuaternion:
    """Apply a generator list as a pipeline, first element first."""
    for g in gens:
        q = apply_generator(g, q)
    return q


def generator_matrix(g: Generator) -> Mat2H:
    if isinstance(g, Translation):
        return Mat2H(ONE, g.b, ZERO, ONE)
    if isinstance(g, Rotation):
        return Mat2H(g.a, ZERO, ZERO, ONE)
    if isinstance(g, Dilation):
        return Mat2H(ONE * g.r, ZERO, ZERO, ONE)
    return Mat2H(ZERO, ONE, ONE, ZERO)


def generator_inverse(g: Generator) -> Generator:
    if isinstance(g, Translation):
        return Translation(-g.b)
    if isinstance(g, Rotation):
        return Rotation(g.a.conj())
    if isinstance(g, Dilation):
        return Dilation(1.0 / g.r)
    return g


def generator_to_json(g: Generator) -> dict:
    if isinstance(g, Translation):
        return {"type": "translation", "b": g.b.to_json()}
    if isinstance(g, Rotation):
        return {"type": "rotation", "a": g.a.to_json()}
    if isinstance(g, Dilation):
        return {"type": "dilation", "r": g.r}
    return {"type": "inversion"}


_EXACT = 1e-12  # identity-up-to-noise filter; absolute, as an FLT has det_h = 1


def _affine_left(m: Quaternion, t: Quaternion) -> list:
    """Generators for q -> m q + t with m != 0, identity factors dropped."""
    out: list = []
    r = abs(m)
    u = m * (1.0 / r)
    if abs(u - ONE) > _EXACT:
        out.append(Rotation(u))
    if abs(r - 1.0) > _EXACT:
        out.append(Dilation(r))
    if abs(t) > _EXACT:
        out.append(Translation(t))
    return out


def decompose_generators(f: FLT) -> list:
    """A pipeline of at most 7 one-parameter generators equal to f.

    For c != 0 this realizes a c^-1 + (b - a c^-1 d)(c q + d)^-1; for
    c = 0 and non-real d, the right division by d is produced by
    inverting, multiplying by d on the left, and inverting again.
    """
    a, b, c, d = f.matrix
    if abs(c) > _EXACT:
        gens = _affine_left(c, d)
        gens.append(Inversion())
        gens.extend(_affine_left(b - a * c.inverse() * d, ZERO))
        shift = a * c.inverse()
        if abs(shift) > _EXACT:
            gens.append(Translation(shift))
        return gens
    if d.im_norm() <= _EXACT * (1.0 + abs(d)):
        s = 1.0 / d.w
        return _affine_left(a * s, b * s)
    gens = _affine_left(a, b)
    gens.append(Inversion())
    gens.extend(_affine_left(d, ZERO))
    gens.append(Inversion())
    return gens


# -- differential -------------------------------------------------------

_BASIS = (ONE, I, J, K)


def jacobian(f, q: Quaternion):
    """Real 4x4 differential at q of the map of f (an FLT or a raw Mat2H).

    Differentiating f(q)(c q + d) = a q + b gives the exact differential
    df_q(h) = (a - f(q) c) h (c q + d)^-1; column l holds it at the l-th
    basis quaternion.  Conformality of the map shows up as transpose(J) J
    being a positive multiple of the identity.
    """
    import numpy as np
    if q is INFINITY:
        raise PoleInput("cannot differentiate at the infinite point")
    p = apply(f, q)
    if p is INFINITY:
        raise PoleInput(f"{q} is a pole of the map")
    a, _, c, d = f.matrix if isinstance(f, FLT) else f
    left, right = a - p * c, (c * q + d).inverse()
    return np.array([tuple(left * e * right) for e in _BASIS]).T


# -- distinguished constructions ---------------------------------------


def three_point_map(alpha: ExtQuaternion, beta: ExtQuaternion,
                    gamma: ExtQuaternion) -> FLT:
    """The map sending alpha -> 0, beta -> inf, gamma -> 1.

    For finite inputs this is q -> (gamma - beta)(gamma - alpha)^-1
    (q - alpha)(q - beta)^-1; an infinite input drops the factors that
    contain it.
    """
    pts = (alpha, beta, gamma)
    if sum(1 for p in pts if p is INFINITY) > 1:
        raise CoincidentPoints("two of the three points are at infinity")
    finite = [p for p in pts if p is not INFINITY]
    for i, p in enumerate(finite):
        if any(coincident(p, q) for q in finite[i + 1:]):
            raise CoincidentPoints("the three points must be distinct")
    if alpha is INFINITY:
        return FLT(Mat2H(ZERO, gamma - beta, ONE, -beta))
    if beta is INFINITY:
        mu = (gamma - alpha).inverse()
        return FLT(Mat2H(mu, -(mu * alpha), ZERO, ONE))
    if gamma is INFINITY:
        return FLT(Mat2H(ONE, -alpha, ONE, -beta))
    mu = (gamma - beta) * (gamma - alpha).inverse()
    return FLT(Mat2H(mu, -(mu * alpha), ONE, -beta))


class _Canonical(NamedTuple):
    alpha: Quaternion
    beta: Quaternion
    q0: Quaternion


class MobiusCanonical(_Canonical):
    """Canonical parameters of a Moebius transformation of the unit ball:

        g(q) = alpha (q - q0)(1 - conj(q0) q)^-1 beta^-1

    with |alpha| = |beta| = 1 and |q0| < 1.  q0 is the point sent to 0.
    """

    __slots__ = ()

    def __new__(cls, alpha: Quaternion, beta: Quaternion, q0: Quaternion):
        # 2 TOL is bound(m) for the terms |alpha| and 1, m = 2
        if abs(abs(alpha) - 1.0) > 2.0 * TOL or abs(abs(beta) - 1.0) > 2.0 * TOL:
            raise ValueError("alpha and beta must be unit quaternions")
        if abs(q0) >= 1.0:
            raise ValueError("q0 must lie in the open unit ball")
        return super().__new__(cls, alpha, beta, q0)

    def __call__(self, q: Quaternion) -> Quaternion:
        num = self.alpha * (q - self.q0)
        den = ONE - self.q0.conj() * q
        return num * den.inverse() * self.beta.inverse()

    def matrix_raw(self) -> Mat2H:
        """Unnormalized matrix [[alpha, -alpha q0], [-beta conj(q0), beta]]."""
        return Mat2H(self.alpha, -(self.alpha * self.q0),
                     -(self.beta * self.q0.conj()), self.beta)

    def to_flt(self) -> FLT:
        return FLT(self.matrix_raw())


def to_canonical_disc(A, tol: float | None = None) -> MobiusCanonical:
    """Canonical parameters of a ball-preserving matrix.

    Requires membership in the group preserving diag(1, -1); then
    alpha = a/|a|, beta = d/|d| and q0 = -a^-1 b.
    """
    M = A.matrix if isinstance(A, FLT) else A
    if GroupTag.SP11 not in classify(M, tol):
        raise NotSp11("matrix does not preserve the form diag(1, -1)")
    a, b, c, d = M
    return MobiusCanonical(a * (1.0 / abs(a)), d * (1.0 / abs(d)),
                           -(a.inverse() * b))


def isotropy_at_infinity(b: Quaternion, d: Quaternion) -> FLT:
    """Half-space map fixing inf: q -> |d|^-2 d q d^-1 + b d^-1.

    Requires d != 0 and purely imaginary b d^-1.
    """
    if not any(d):
        raise ZeroD("d must be nonzero")
    v = b * d.inverse()
    if not negligible(abs(v.w), abs(v)):
        raise NonImaginaryShift("b d^-1 must be purely imaginary")
    return FLT(Mat2H(d.conj().inverse(), b, ZERO, d))


def halfspace_general(alpha: Quaternion, beta: Quaternion, gamma: Quaternion) -> FLT:
    """General half-space map with g(inf) = gamma on the boundary.

    Matrix [[|alpha|^-2 gamma alpha, gamma beta + alpha],
            [|alpha|^-2 alpha,       beta]],
    subject to alpha != 0 and purely imaginary gamma and beta alpha^-1.
    """
    if not any(alpha):
        raise ConstraintViolation("alpha must be nonzero")
    if not negligible(abs(gamma.w), abs(gamma)):
        raise ConstraintViolation("gamma must be purely imaginary")
    v = beta * alpha.inverse()
    if not negligible(abs(v.w), abs(v)):
        raise ConstraintViolation("beta alpha^-1 must be purely imaginary")
    s = alpha.conj().inverse()  # |alpha|^-2 alpha, rescaled where |alpha|^2 leaves range
    return FLT(Mat2H(gamma * s, gamma * beta + alpha, s, beta))
