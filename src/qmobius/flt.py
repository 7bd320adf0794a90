"""Fractional linear transformations q -> (a q + b)(c q + d)^-1 of H u {inf}.

An invertible coefficient matrix induces a bijection of H u {inf}; two
matrices induce the same map exactly when they differ by a nonzero real
factor.  FLT therefore stores the matrix normalized to det_h = 1, which
leaves only a sign ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from . import mat2h as _m
from .errors import (BothZero, CoincidentPoints, ConstraintViolation,
                     NonImaginaryShift, NotSp11, PoleInput, ZeroD)
from .mat2h import SINGULAR_REL, GroupTag, Mat2H, classify, det_h, normalize
from .quat import ONE, ZERO, Quaternion, _tols


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
    if data == "inf":
        return INFINITY
    return Quaternion.from_json(data)


# |c q + d| below this scaled threshold counts as a pole
_POLE_EPS = 1e-12


def apply(f, q: ExtQuaternion) -> ExtQuaternion:
    """Evaluate the map of f (an FLT or a raw Mat2H) at q.

    Poles map to INFINITY; INFINITY maps to a c^-1, or stays at INFINITY
    when c = 0.
    """
    A = f.matrix if isinstance(f, FLT) else f
    a, b, c, d = A
    if q is INFINITY:
        if abs(c) <= _POLE_EPS * (1.0 + abs(a) + abs(d)):
            return INFINITY
        return a * c.inverse()
    den = c * q + d
    if abs(den) <= _POLE_EPS * (1.0 + abs(c) * abs(q) + abs(d)):
        return INFINITY
    return (a * q + b) * den.inverse()


class FLT:
    """A fractional linear transformation, stored as a det_h = 1 matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mat2H):
        self.matrix = normalize(matrix)

    @classmethod
    def identity(cls) -> "FLT":
        return cls(Mat2H.identity())

    def __call__(self, q: ExtQuaternion) -> ExtQuaternion:
        return apply(self.matrix, q)

    def inverse(self) -> "FLT":
        return FLT(_m.inverse(self.matrix))

    def compose(self, other: "FLT") -> "FLT":
        """The map applying other first, then self."""
        return FLT(self.matrix @ other.matrix)

    def same_map(self, other: "FLT", tol: float | None = None) -> bool:
        """Map equality; normalized matrices agree up to an overall sign."""
        M, N = self.matrix, other.matrix
        return M.close_to(N, tol) or M.close_to(-N, tol)

    def __repr__(self):
        return f"FLT({self.matrix!r})"


def is_constant(A: Mat2H, tol: float | None = None) -> bool:
    """Whether the formula (a q + b)(c q + d)^-1 collapses to one value.

    This happens exactly when det_h(A) = 0; the constant value is then
    b d^-1 (or a c^-1 when d = 0).  The determinant of an exactly
    rank-one matrix evaluates to about sqrt(machine epsilon) times the
    squared entry scale, so the default gate matches the singularity
    gate of the inverse rather than the comparison tolerance.
    """
    atol, _ = _tols(tol)
    scale = A.entry_scale()
    thr = atol * (1.0 + scale)
    if abs(A.c) <= thr and abs(A.d) <= thr:
        raise BothZero("c = d = 0 leaves the map undefined everywhere")
    gate = SINGULAR_REL if tol is None else tol
    return det_h(A) <= gate * (1.0 + scale * scale)


def constant_value(A: Mat2H, tol: float | None = None) -> Quaternion:
    """The single value taken by a constant map (see is_constant)."""
    if not is_constant(A, tol):
        raise ValueError("matrix does not induce a constant map")
    atol, _ = _tols(tol)
    if abs(A.d) > atol * (1.0 + A.entry_scale()):
        return A.b * A.d.inverse()
    return A.a * A.c.inverse()


# -- generators ---------------------------------------------------------


@dataclass(frozen=True)
class Translation:
    b: Quaternion


@dataclass(frozen=True)
class Rotation:
    a: Quaternion  # unit modulus; acts by left multiplication


@dataclass(frozen=True)
class Dilation:
    r: float  # positive real factor


@dataclass(frozen=True)
class Inversion:
    pass


Generator = Union[Translation, Rotation, Dilation, Inversion]


def apply_generator(g: Generator, q: ExtQuaternion) -> ExtQuaternion:
    if q is INFINITY:
        return ZERO if isinstance(g, Inversion) else INFINITY
    if isinstance(g, Translation):
        return q + g.b
    if isinstance(g, Rotation):
        return g.a * q
    if isinstance(g, Dilation):
        return q * g.r
    if abs(q) <= _POLE_EPS:
        return INFINITY
    return q.inverse()


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


def generator_from_json(data) -> Generator:
    kind = data.get("type")
    if kind == "translation":
        return Translation(Quaternion.from_json(data["b"]))
    if kind == "rotation":
        return Rotation(Quaternion.from_json(data["a"]))
    if kind == "dilation":
        return Dilation(float(data["r"]))
    if kind == "inversion":
        return Inversion()
    raise ValueError(f"unknown generator type {kind!r}")


_EXACT = 1e-12  # filter for generators that are the identity up to noise


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

_BASIS = (Quaternion(1.0, 0.0, 0.0, 0.0), Quaternion(0.0, 1.0, 0.0, 0.0),
          Quaternion(0.0, 0.0, 1.0, 0.0), Quaternion(0.0, 0.0, 0.0, 1.0))


def jacobian(f, q: Quaternion, step: float | None = None):
    """Real 4x4 differential of f at q by central finite differences.

    Column l holds the derivative along the l-th coordinate direction.
    Conformality of the map shows up as transpose(J) J being a positive
    multiple of the identity.
    """
    import numpy as np
    if is_infinity(q):
        raise PoleInput("cannot differentiate at the infinite point")
    h = step if step is not None else 1e-6 * (1.0 + abs(q))
    if apply(f, q) is INFINITY:
        raise PoleInput(f"{q} is a pole of the map")
    cols = []
    for e in _BASIS:
        fp = apply(f, q + e * h)
        fm = apply(f, q - e * h)
        if fp is INFINITY or fm is INFINITY:
            raise PoleInput(f"difference stencil at {q} crosses a pole")
        cols.append([(p - m) / (2.0 * h) for p, m in zip(fp, fm)])
    return np.array(cols, dtype=float).T


# -- distinguished constructions ---------------------------------------


def three_point_map(alpha: ExtQuaternion, beta: ExtQuaternion,
                    gamma: ExtQuaternion, tol: float | None = None) -> FLT:
    """The map sending alpha -> 0, beta -> inf, gamma -> 1.

    For finite inputs this is q -> (gamma - beta)(gamma - alpha)^-1
    (q - alpha)(q - beta)^-1; an infinite input drops the factors that
    contain it.
    """
    atol, _ = _tols(tol)
    pts = (alpha, beta, gamma)
    if sum(1 for p in pts if p is INFINITY) > 1:
        raise CoincidentPoints("two of the three points are at infinity")
    finite = [p for p in pts if p is not INFINITY]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            p, q = finite[i], finite[j]
            if abs(p - q) <= atol * (1.0 + max(abs(p), abs(q))):
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


@dataclass(frozen=True)
class MobiusCanonical:
    """Canonical parameters of a Moebius transformation of the unit ball:

        g(q) = alpha (q - q0)(1 - conj(q0) q)^-1 beta^-1

    with |alpha| = |beta| = 1 and |q0| < 1.  q0 is the point sent to 0.
    """

    alpha: Quaternion
    beta: Quaternion
    q0: Quaternion

    def __post_init__(self):
        atol, rtol = _tols(None)
        if abs(abs(self.alpha) - 1.0) > atol + rtol or abs(abs(self.beta) - 1.0) > atol + rtol:
            raise ValueError("alpha and beta must be unit quaternions")
        if abs(self.q0) >= 1.0:
            raise ValueError("q0 must lie in the open unit ball")

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


def canonical_compose(g1: MobiusCanonical, g2: MobiusCanonical) -> MobiusCanonical:
    """Canonical parameters of g1 o g2, computed without leaving the
    parameter space.  Factor order matters in every product below."""
    a, bq, q0 = g1.alpha, g1.beta, g1.q0
    c, dq, p0 = g2.alpha, g2.beta, g2.q0
    n1 = a * c + a * q0 * dq * p0.conj()
    n2 = bq * dq + bq * q0.conj() * c * p0
    w0 = n1.inverse() * (a * c * p0 + a * q0 * dq)
    return MobiusCanonical(n1 * (1.0 / abs(n1)), n2 * (1.0 / abs(n2)), w0)


def canonical_inverse(g: MobiusCanonical) -> MobiusCanonical:
    """Canonical parameters of the inverse map."""
    return MobiusCanonical(g.alpha.conj(), g.beta.conj(),
                           -(g.alpha * g.q0 * g.beta.conj()))


def canonical_det_check(g: MobiusCanonical) -> float:
    """det_h of the raw canonical matrix; equals 1 - |q0|^2."""
    return det_h(g.matrix_raw())


def isotropy_at_infinity(b: Quaternion, d: Quaternion,
                         tol: float | None = None) -> FLT:
    """Half-space map fixing inf: q -> |d|^-2 d q d^-1 + b d^-1.

    Requires d != 0 and purely imaginary b d^-1.
    """
    atol, rtol = _tols(tol)
    if abs(d) <= atol:
        raise ZeroD("d must be nonzero")
    v = b * d.inverse()
    if abs(v.w) > atol + rtol * (1.0 + abs(v)):
        raise NonImaginaryShift("b d^-1 must be purely imaginary")
    s = 1.0 / d.norm_sq()
    return FLT(Mat2H(d * s, b, ZERO, d))


def halfspace_general(alpha: Quaternion, beta: Quaternion, gamma: Quaternion,
                      tol: float | None = None) -> FLT:
    """General half-space map with g(inf) = gamma on the boundary.

    Matrix [[|alpha|^-2 gamma alpha, gamma beta + alpha],
            [|alpha|^-2 alpha,       beta]],
    subject to alpha != 0 and purely imaginary gamma and beta alpha^-1.
    """
    atol, rtol = _tols(tol)
    if abs(alpha) <= atol:
        raise ConstraintViolation("alpha must be nonzero")
    if abs(gamma.w) > atol + rtol * (1.0 + abs(gamma)):
        raise ConstraintViolation("gamma must be purely imaginary")
    v = beta * alpha.inverse()
    if abs(v.w) > atol + rtol * (1.0 + abs(v)):
        raise ConstraintViolation("beta alpha^-1 must be purely imaginary")
    s = 1.0 / alpha.norm_sq()
    return FLT(Mat2H(gamma * alpha * s, gamma * beta + alpha,
                     alpha * s, beta))
