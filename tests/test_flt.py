"""Fractional linear maps: evaluation, composition, generators, canonical form."""

import math

import numpy as np
import pytest

from qmobius.crossratio import QuadricF3
from qmobius.errors import (
    BothZero,
    ConstraintViolation,
    NonFiniteResult,
    NonImaginaryShift,
    NotSp11,
    PoleInput,
    Singular,
    ZeroD,
)
from qmobius.flt import (
    FLT,
    INFINITY,
    Dilation,
    Inversion,
    MobiusCanonical,
    Rotation,
    Translation,
    apply,
    apply_generator,
    apply_generators,
    decompose_generators,
    generator_inverse,
    generator_matrix,
    generator_to_json,
    halfspace_general,
    is_constant,
    is_infinity,
    isotropy_at_infinity,
    jacobian,
    three_point_map,
    to_canonical_disc,
)
from qmobius.mat2h import GroupTag, Mat2H, classify, det_h, inverse, normalize
from qmobius.quat import I, J, K, N2_HUGE, N2_TINY, ONE, ZERO, Quaternion
from qmobius.sampling import (
    make_rng,
    random_ball_point,
    random_canonical,
    random_imaginary,
    random_invertible_matrix,
    random_matrix,
    random_quaternion,
    random_slhplus,
    random_sp11,
    random_unit_quaternion,
)

from pins import outcome


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


IDENT = Mat2H.identity()
INVERSION_M = Mat2H(ZERO, ONE, ONE, ZERO)


def ext_close(u, v, tol=1e-9):
    if is_infinity(u) or is_infinity(v):
        return is_infinity(u) and is_infinity(v)
    return abs(u - v) <= tol * (1.0 + abs(v))


# -- evaluation ----------------------------------------------------------


def test_apply_spot_values():
    translation = Mat2H(ONE, ONE, ZERO, ONE)
    assert apply(translation, I) == ONE + I
    assert is_infinity(apply(INVERSION_M, ZERO))
    assert apply(INVERSION_M, INFINITY) == ZERO
    shifted_inversion = Mat2H(ZERO, ONE, ONE, -I)  # q -> (q - i)^-1
    assert is_infinity(apply(shifted_inversion, I))
    assert is_infinity(apply(IDENT, INFINITY))


def test_apply_accepts_flt_and_matrix():
    f = FLT(Mat2H(ONE, ONE, ZERO, ONE))
    assert apply(f, ZERO) == f(ZERO) == ONE


# -- apply on components, pinned to the operator expression -------------


def _operator_apply(A, q):
    """apply as the Quaternion operators spell it; apply must match it bit for bit."""
    a, b, c, d = A
    if q is INFINITY:
        if abs(c) <= 1e-12 * (abs(a) + abs(d)):
            return INFINITY
        return a * c.inverse()
    den = c * q + d
    if abs(den) <= 1e-12 * (abs(c) * abs(q) + abs(d)):
        return INFINITY
    return (a * q + b) * den.inverse()


def _near_pole(rng, A):
    """A probe 1e-13 to 1e-11 relative from the pole -c^-1 d."""
    pole = -(A.c.inverse() * A.d)
    t = 10.0 ** rng.uniform(-13.0, -11.0)
    return pole + random_unit_quaternion(rng) * (t * (1.0 + abs(pole)))


def _pin_cases():
    rng = make_rng(2026)
    for scale in (1.0, 1e150, 1e-150):
        for _ in range(100):
            M = random_matrix(rng, scale)
            f = FLT(random_invertible_matrix(rng))
            for A in (M, f):
                m = A.matrix if isinstance(A, FLT) else A
                yield A, random_quaternion(rng, 3.0), False
                yield A, _near_pole(rng, m), True
                yield A, INFINITY, False
            lower = Mat2H(M.a, M.b, ZERO, M.d)  # c = 0
            yield lower, random_quaternion(rng, 3.0), False
            yield lower, INFINITY, False
    for _ in range(100):
        ints = [Quaternion(*(int(v) for v in rng.integers(-3, 4, size=4))) for _ in range(5)]
        yield Mat2H(*ints[:4]), ints[4], False


def test_apply_is_bit_identical_to_the_operator_expression():
    near_pole = []
    for A, q, near in _pin_cases():
        got = outcome(apply, A, q)
        M = A.matrix if isinstance(A, FLT) else A
        assert got == outcome(_operator_apply, M, q), (A, q)
        if near:
            near_pole.append(got is INFINITY)
    # the probes near a pole land on both sides of the pole decision
    assert 0.2 < sum(near_pole) / len(near_pole) < 0.8


def test_apply_at_infinity_is_bit_identical_to_a_c_inverse():
    # a c^-1 on components, Quaternion.inverse's rescue where |c|^2 leaves
    # [N2_TINY, N2_HUGE), and the pole test of |c| against |a| + |d|
    rng = make_rng(2027)
    mats = [random_matrix(rng, scale) for scale in (1.0, 1e150, 1e-150, 1e-300, 1e300)
            for _ in range(100)]
    for _ in range(100):
        a, b, c, d = random_matrix(rng)
        t = 10.0 ** rng.uniform(-13.0, -11.0)  # c on both sides of the pole test
        mats += [Mat2H(a, b, c * t, d), Mat2H(a, b, ZERO, d), Mat2H(a * 1e-160, b, c * 1e-160, d)]
    zeros = [q(0.0, -0.0, 0.0, -0.0), q(-0.0, 1.0, -0.0, 0.0), q(2.0, -0.0, -0.0, -0.0)]
    mats += [Mat2H(a, ONE, c, d) for a in zeros for c in zeros for d in zeros]
    n2 = [A.c.norm_sq() for A in mats]
    assert any(v >= N2_HUGE for v in n2) and any(0.0 < v < N2_TINY for v in n2)
    outcomes = []
    for A in mats:
        got = outcome(apply, A, INFINITY)
        assert got == outcome(_operator_apply, A, INFINITY), A
        outcomes.append(got is INFINITY)
    assert 0 < sum(outcomes) < len(outcomes)


def test_the_raw_matrix_screen_passes_huge_entries_and_stops_any_non_finite_one():
    # the hypot of the 16 components overflows, so the exact scan decides
    big = q(1e308, -1e308)
    for A in (Mat2H(big, ZERO, ZERO, big), Mat2H(big, big, big, -big)):
        assert math.hypot(*(x for e in A for x in e)) == math.inf
        for p in (q(0.5, 0.25), q(-3.0, 0.0, 1.0), INFINITY):
            got = outcome(apply, A, p)
            assert got == outcome(_operator_apply, A, p) and got is not NonFiniteResult, (A, p)
    base = [v for e in random_matrix(make_rng(2028)) for v in e]
    for slot in range(16):
        for bad in (math.inf, -math.inf, math.nan):
            comps = base[:slot] + [bad] + base[slot + 1:]
            A = Mat2H(*(Quaternion(*comps[k:k + 4]) for k in range(0, 16, 4)))
            for p in (q(0.5, 0.25), INFINITY):
                with pytest.raises(NonFiniteResult):
                    apply(A, p)


def test_operators_keep_their_types():
    p, r = q(1, 2, 3, 4), q(-1, 0.5, 2, 0)
    for v in (p * r, p * 2.0, 2.0 * p, p + r, p + 1.0, p - r, p - 1.0, 1.0 - p,
              -p, p.conj(), p / 2.0, p.inverse(), q(1e200).inverse(), apply(IDENT, p)):
        assert type(v) is Quaternion
    assert (p * r).x == (p * r)[1] == 0.5 - 2.0 + 0.0 - 8.0
    assert p + r == Quaternion(0.0, 2.5, 5.0, 4.0) == (0.0, 2.5, 5.0, 4.0)
    with pytest.raises(AttributeError):
        (p + r).w = 1.0
    A = random_invertible_matrix(make_rng(5))
    assert type(A @ A) is Mat2H
    assert (A @ IDENT) == A and (A @ A).a == A.a * A.a + A.b * A.c


def test_flt_rejects_singular_matrix():
    with pytest.raises(Singular):
        FLT(Mat2H(I, I, ONE, ONE))


def test_homomorphism_fuzz():
    rng = make_rng(31)
    for _ in range(200):
        A = random_invertible_matrix(rng, 2.0)
        B = random_invertible_matrix(rng, 2.0)
        AB = A @ B
        for _ in range(4):
            p = random_quaternion(rng, 2.0)
            step = apply(B, p)
            lhs = apply(AB, p)
            if is_infinity(step) or is_infinity(lhs):
                continue
            rhs = apply(A, step)
            if is_infinity(rhs):
                continue
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))


def test_kernel_is_real_center():
    rng = make_rng(32)
    probes = [random_quaternion(rng, 2.0) for _ in range(8)]
    for t in (1.0, -2.5, 0.3):
        A = IDENT.scalar_mul(t)
        assert all(ext_close(apply(A, p), p, 1e-12) for p in probes)
    B = Mat2H(I, ZERO, ZERO, I)  # conjugation by i moves j
    assert not all(ext_close(apply(B, p), p, 1e-6) for p in probes)


# -- constant maps -------------------------------------------------------


def test_constant_spot_values():
    assert is_constant(Mat2H(I, I, ONE, ONE))
    assert is_constant(Mat2H(q(2), q(4), q(1), q(2)))
    assert not is_constant(IDENT)


@pytest.mark.parametrize("t, constant", [(2e-6, False), (5e-7, True)])
def test_constant_is_exactly_what_flt_rejects(t, constant):
    # one singularity rule: det_h(diag(1, t)) = t against SINGULAR_REL = 1e-6;
    # the constant test's looser gate, 1e-6 (1 + scale^2) at half scale,
    # called diag(1, 2e-6) constant though FLT takes it
    A = Mat2H(ONE, ZERO, ZERO, q(t))
    assert is_constant(A) is constant
    if constant:
        with pytest.raises(Singular):
            FLT(A)
    else:
        assert FLT(A)(ONE).close_to(q(1.0 / t))


def test_constant_rank_one_fuzz():
    rng = make_rng(33)
    for _ in range(100):
        k = random_quaternion(rng, 2.0)
        c = random_quaternion(rng, 2.0)
        d = random_quaternion(rng, 2.0)
        if abs(c) < 0.1 and abs(d) < 0.1:
            continue
        assert is_constant(Mat2H(k * c, k * d, c, d))
        assert not is_constant(random_invertible_matrix(rng, 2.0))


@pytest.mark.parametrize("t", [1e-160, 1e-100, 1e-10, 1e-5, 1e5, 1e160])
def test_constant_is_projective_at_extreme_scales(t):
    # at every scale, including those where scale^2 underflows or overflows,
    # the decision is that of the matrix at scale 1
    assert not is_constant(IDENT.scalar_mul(t))
    k, c, d = q(0.5, 1, -0.25, 0.75), q(1, 2, 0, -1) * t, q(-0.5, 0, 3, 1) * t
    for A in (Mat2H(k * c, k * d, c, d), Mat2H(k * c, ZERO, c, ZERO)):
        assert is_constant(A)


def test_constant_both_rows_zero_raises():
    with pytest.raises(BothZero):
        is_constant(Mat2H(ONE, ONE, ZERO, ZERO))


# -- composition and inversion ------------------------------------------


def test_compose_spot_values():
    f = FLT(Mat2H(ONE, q(2), ZERO, ONE))
    assert f.compose(FLT.identity()).same_map(f)
    inv = FLT(INVERSION_M)
    assert inv.compose(inv).same_map(FLT.identity())
    shift = FLT(Mat2H(ONE, ONE, ZERO, ONE))
    assert shift.compose(inv)(ONE) == q(2)


def test_compose_order_is_rightmost_first():
    rng = make_rng(34)
    f = FLT(random_invertible_matrix(rng, 1.5))
    g = FLT(random_invertible_matrix(rng, 1.5))
    p = random_quaternion(rng)
    assert ext_close(f.compose(g)(p), f(g(p)))


def test_flt_inverse_round_trip():
    rng = make_rng(35)
    for _ in range(50):
        f = FLT(random_invertible_matrix(rng, 2.0))
        for _ in range(3):
            p = random_quaternion(rng, 1.5)
            image = f(p)
            if is_infinity(image):
                continue
            assert ext_close(f.inverse()(image), p, 1e-8)


def test_same_map_up_to_sign():
    rng = make_rng(36)
    f = FLT(random_invertible_matrix(rng, 2.0))
    g = FLT(f.matrix.scalar_mul(-1.0))
    assert f.same_map(g)


# -- generators ----------------------------------------------------------


def test_apply_generator_spot_values():
    assert apply_generator(Translation(q(1)), I) == ONE + I
    # rotations act by left multiplication with a unit quaternion
    assert apply_generator(Rotation(I), J) == I * J
    assert apply_generator(Dilation(2.0), J) == q(0, 0, 2)
    assert is_infinity(apply_generator(Inversion(), ZERO))
    assert apply_generator(Inversion(), INFINITY) == ZERO
    assert is_infinity(apply_generator(Translation(q(1)), INFINITY))


def test_generator_pipeline_agrees_with_apply_at_the_pole():
    # as for apply, only q = 0 is a pole of q -> q^-1; 1e-310 is none, and
    # its image 1e310 does not fit a float
    gens = decompose_generators(FLT(INVERSION_M))
    assert gens == [Inversion()]
    for route in (lambda p: apply(INVERSION_M, p), lambda p: apply_generators(gens, p)):
        assert route(q(1e-13)).close_to(q(1e13), tol=1e-15)
        with pytest.raises(NonFiniteResult):
            route(q(1e-310))
        assert route(ZERO) is INFINITY


def test_records_compare_by_type_and_stay_frozen():
    p = q(1, 2, 3, 4)
    assert Translation(p) != Rotation(p) and not Translation(p) == Rotation(p)
    assert Translation(p) != (p,) and (p,) != Translation(p)
    assert Translation(p) == Translation(p) and not Translation(p) != Translation(p)
    assert hash(Translation(p)) == hash(Translation(p))
    assert len({Translation(p), Rotation(p), Translation(p)}) == 2
    assert Inversion() == Inversion()
    assert repr(Translation(p)) == "Translation(b=Quaternion(w=1.0, x=2.0, y=3.0, z=4.0))"
    assert repr(Dilation(2.5)) == "Dilation(r=2.5)"
    assert repr(Inversion()) == "Inversion()"
    g, Q = MobiusCanonical(ONE, ONE, q(0.5)), QuadricF3(1.0, ZERO, -1.0)
    for record, field in ((Translation(p), "b"), (g, "q0"), (Q, "gamma")):
        with pytest.raises(AttributeError):
            setattr(record, field, ZERO)
        with pytest.raises(AttributeError):
            record.extra = 0.0
    with pytest.raises(ValueError, match="unit quaternions"):
        MobiusCanonical(ONE * 2.0, ONE, ZERO)
    with pytest.raises(ValueError, match="open unit ball"):
        MobiusCanonical(ONE, ONE, ONE)
    with pytest.raises(ValueError, match="must not all vanish"):
        QuadricF3(0.0, ZERO, 0.0)


def test_generator_matrix_matches_action():
    rng = make_rng(37)
    gens = [Translation(random_quaternion(rng)), Rotation(random_unit_quaternion(rng)),
            Dilation(1.7), Inversion()]
    for g in gens:
        M = generator_matrix(g)
        for _ in range(5):
            p = random_quaternion(rng, 2.0)
            assert ext_close(apply(M, p), apply_generator(g, p), 1e-10)


def test_generator_inverse_cancels():
    rng = make_rng(38)
    gens = [Translation(random_quaternion(rng)), Rotation(random_unit_quaternion(rng)),
            Dilation(0.4), Inversion()]
    for g in gens:
        h = generator_inverse(g)
        for _ in range(5):
            p = random_quaternion(rng, 2.0)
            if abs(p) < 0.1:
                continue
            assert ext_close(apply_generator(h, apply_generator(g, p)), p, 1e-10)


def test_generator_to_json_spot_values():
    assert [generator_to_json(g) for g in (Translation(q(1, 2, 3, 4)), Rotation(I),
                                           Dilation(2.5), Inversion())] == [
        {"type": "translation", "b": [1.0, 2.0, 3.0, 4.0]}, {"type": "rotation", "a": [0.0, 1.0, 0.0, 0.0]},
        {"type": "dilation", "r": 2.5}, {"type": "inversion"}]


def test_decompose_spot_values():
    b = q(0.5, 1, 0, 0)
    gens = decompose_generators(FLT(Mat2H(ONE, b, ZERO, ONE)))
    assert gens == [Translation(b)]

    gens = decompose_generators(FLT(INVERSION_M))
    assert gens == [Inversion()]

    f = FLT(Mat2H(q(2), ZERO, ZERO, ONE))
    gens = decompose_generators(f)
    probe = I + J
    assert ext_close(apply_generators(gens, probe), q(0, 2, 2, 0), 1e-10)


def test_decompose_lower_triangular_with_nonreal_diagonal():
    # c = 0 and d not real exercises the longest factorization
    f = FLT(Mat2H(ONE, ZERO, ZERO, J))
    gens = decompose_generators(f)
    assert len(gens) <= 7
    rng = make_rng(39)
    for _ in range(5):
        p = random_quaternion(rng, 2.0)
        assert ext_close(apply_generators(gens, p), f(p), 1e-8)


def test_decompose_fuzz():
    rng = make_rng(40)
    for _ in range(100):
        f = FLT(random_invertible_matrix(rng, 2.0))
        gens = decompose_generators(f)
        assert len(gens) <= 7
        for _ in range(5):
            p = random_quaternion(rng, 2.0)
            expected = f(p)
            if is_infinity(expected) or abs(expected) > 1e6:
                continue
            assert ext_close(apply_generators(gens, p), expected, 1e-8)
        assert ext_close(apply_generators(gens, INFINITY), f(INFINITY), 1e-8)


# -- differentials -------------------------------------------------------


def test_jacobian_identity():
    assert np.array_equal(jacobian(FLT.identity(), q(0.3, -0.1, 0.2, 0.5)), np.eye(4))


def test_jacobian_inversion_is_orthogonal_at_unit_point():
    Jm = jacobian(FLT(INVERSION_M), I)
    assert np.allclose(Jm.T @ Jm, np.eye(4), rtol=0.0, atol=1e-15)


def test_jacobian_takes_a_raw_matrix_at_any_scale():
    rng = make_rng(47)
    for _ in range(20):
        M = random_invertible_matrix(rng, 1.5)
        p = random_quaternion(rng, 1.5)
        ref = jacobian(FLT(M), p)
        for t in (1.0, -3.0, 1e-160, 1e160):
            assert np.allclose(jacobian(M.scalar_mul(t), p), ref, rtol=1e-12, atol=1e-12)


def test_jacobian_has_no_step_option():
    with pytest.raises(TypeError):
        jacobian(FLT.identity(), ONE, step=1e-3)


def test_jacobian_canonical_dilation_coefficient():
    g = MobiusCanonical(ONE, ONE, q(0.5)).to_flt()
    Jm = jacobian(g, ZERO)
    lam_sq = (1.0 - 0.25) ** 2
    assert np.allclose(Jm.T @ Jm, lam_sq * np.eye(4), rtol=0.0, atol=1e-15)


def test_jacobian_pole_raises():
    with pytest.raises(PoleInput):
        jacobian(FLT(INVERSION_M), ZERO)
    with pytest.raises(PoleInput):
        jacobian(FLT.identity(), INFINITY)


def test_conformality_fuzz():
    rng = make_rng(41)
    done = 0
    while done < 30:
        f = FLT(random_invertible_matrix(rng, 1.5))
        p = random_quaternion(rng, 1.5)
        c, d = f.matrix.c, f.matrix.d
        if abs(c * p + d) < 0.3:
            continue
        Jm = jacobian(f, p)
        JtJ = Jm.T @ Jm
        lam_sq = float(np.trace(JtJ)) / 4.0
        assert np.abs(JtJ - lam_sq * np.eye(4)).max() <= 1e-4
        # any h -> L h R passes the check above; the map's own central
        # difference ties J to the order of the factors
        h = 1e-6 * (1.0 + abs(p))
        cd = np.array([tuple(apply(f, p + e * h) - apply(f, p - e * h))
                       for e in (ONE, I, J, K)]).T / (2.0 * h)
        assert np.abs(Jm - cd).max() <= 1e-8 * (1.0 + np.abs(Jm).max())
        done += 1


# -- three point normalization ------------------------------------------


def test_three_point_map_spot_values():
    f = three_point_map(ZERO, q(2), ONE)
    assert f(ZERO) == ZERO
    assert is_infinity(f(q(2)))
    assert ext_close(f(ONE), ONE, 1e-12)
    # matches q -> -q (q - 2)^-1 pointwise
    p = I
    assert ext_close(f(p), -p * (p - q(2)).inverse(), 1e-12)

    ident = three_point_map(ZERO, INFINITY, ONE)
    assert ident.same_map(FLT.identity())

    g = three_point_map(I, J, K)
    assert g(I) == ZERO
    assert is_infinity(g(J))
    assert ext_close(g(K), ONE, 1e-12)


def test_three_point_map_infinite_arguments():
    f = three_point_map(INFINITY, ZERO, ONE)
    assert f(INFINITY) == ZERO
    assert is_infinity(f(ZERO))
    assert ext_close(f(ONE), ONE, 1e-12)

    g = three_point_map(ZERO, ONE, INFINITY)
    assert g(ZERO) == ZERO
    assert is_infinity(g(ONE))
    assert ext_close(g(INFINITY), ONE, 1e-12)


def test_three_point_image_unique_up_to_conjugation():
    # postcomposing with q -> u q u^-1 fixes (0, inf, 1), so two valid
    # normalizations can only differ by such a twist
    rng = make_rng(42)
    for _ in range(20):
        pts = [random_quaternion(rng, 2.0) for _ in range(3)]
        if min(abs(a - b) for a in pts for b in pts if a is not b) < 0.3:
            continue
        f = three_point_map(*pts)
        u = random_unit_quaternion(rng)
        twist = FLT(Mat2H(u, ZERO, ZERO, u))
        g = twist.compose(f)
        assert ext_close(g(pts[0]), ZERO, 1e-9)
        assert is_infinity(g(pts[1]))
        assert ext_close(g(pts[2]), ONE, 1e-9)
        p = random_quaternion(rng, 1.5)
        v1, v2 = f(p), g(p)
        if is_infinity(v1) or is_infinity(v2):
            continue
        assert abs(v1.w - v2.w) <= 1e-8 * (1.0 + abs(v1))
        assert abs(v1.im_norm() - v2.im_norm()) <= 1e-8 * (1.0 + abs(v1))


# -- canonical ball form -------------------------------------------------


def boost_matrix():
    c, s = math.cosh(1.0), math.sinh(1.0)
    return Mat2H(q(c), q(s), q(s), q(c))


def test_to_canonical_spot_values():
    g = to_canonical_disc(IDENT)
    assert (g.alpha, g.beta, g.q0) == (ONE, ONE, ZERO)

    g = to_canonical_disc(boost_matrix())
    assert g.alpha.close_to(ONE) and g.beta.close_to(ONE)
    assert g.q0.close_to(q(-math.tanh(1.0)), tol=1e-12)

    c, s = math.cosh(1.0), math.sinh(1.0)
    A = Mat2H(I * c, I * s, q(s), q(c))
    g = to_canonical_disc(A)
    assert g.alpha.close_to(I, tol=1e-12)
    assert g.beta.close_to(ONE, tol=1e-12)
    assert g.q0.close_to(q(-math.tanh(1.0)), tol=1e-12)


def test_to_canonical_rejects_other_groups():
    with pytest.raises(NotSp11):
        to_canonical_disc(Mat2H(ZERO, ONE, ONE, ZERO))
    with pytest.raises(NotSp11):
        to_canonical_disc(Mat2H(q(2), ONE, ONE, q(2)))


def test_canonical_matrix_round_trip():
    rng = make_rng(43)
    for _ in range(50):
        g = random_canonical(rng)
        back = to_canonical_disc(normalize(g.matrix_raw()))
        assert back.alpha.close_to(g.alpha, tol=1e-9)
        assert back.beta.close_to(g.beta, tol=1e-9)
        assert back.q0.close_to(g.q0, tol=1e-9)


def test_canonical_det_check_values():
    # det_h of the raw canonical matrix is 1 - |q0|^2
    for q0, expect in ((ZERO, 1.0), (q(0.5), 0.75), (q(0, 0.6), 0.64)):
        assert det_h(MobiusCanonical(ONE, ONE, q0).matrix_raw()) == pytest.approx(expect, abs=1e-12)


def test_canonical_norm_identity():
    # 1 - |g(q)|^2 = (1 - |q0|^2)(1 - |q|^2) / |1 - conj(q0) q|^2
    rng = make_rng(47)
    for _ in range(100):
        q0 = random_ball_point(rng)
        g = MobiusCanonical(ONE, ONE, q0)
        p = random_ball_point(rng)
        lhs = 1.0 - g(p).norm_sq()
        rhs = (1.0 - q0.norm_sq()) * (1.0 - p.norm_sq()) / \
            (ONE - q0.conj() * p).norm_sq()
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_sp11_preserves_ball_and_sphere():
    rng = make_rng(48)
    A = random_sp11(rng)
    for _ in range(100):
        p = random_ball_point(rng, rmax=0.95)
        image = apply(A, p)
        assert abs(image) < 1.0
    for _ in range(20):
        u = random_unit_quaternion(rng)
        image = apply(A, u)
        assert abs(abs(image) - 1.0) <= 1e-9


# -- half-space constructions -------------------------------------------


def test_isotropy_spot_values():
    f = isotropy_at_infinity(I, ONE)
    assert f(ZERO) == I
    assert f(ONE) == ONE + I
    assert is_infinity(f(INFINITY))

    g = isotropy_at_infinity(ZERO, q(2))
    p = q(1, 2, 0, 1)
    assert g(p).close_to(p / 4.0, tol=1e-12)


def test_isotropy_errors():
    with pytest.raises(ZeroD):
        isotropy_at_infinity(I, ZERO)
    with pytest.raises(NonImaginaryShift):
        isotropy_at_infinity(ONE, ONE)


def test_non_finite_points_and_matrices_give_no_nan_map():
    # a point at inf coincides with nothing now, so three_point_map goes on
    # to FLT, whose normalize returned a map of nans for non-finite entries
    for A in (Mat2H(q(math.inf), ZERO, ZERO, ONE), Mat2H(ONE, q(math.nan), ZERO, ONE)):
        with pytest.raises(Singular):
            FLT(A)
        with pytest.raises(Singular):
            inverse(A)
    with pytest.raises(Singular):
        three_point_map(q(math.inf), ONE, I)


@pytest.mark.parametrize("t", [1e-155, 1e-170])
def test_a_tiny_nonzero_d_or_alpha_is_singular(t):
    # t is nonzero, so ZeroD does not fire; the map is too ill-conditioned,
    # and normalize says so (1 / |t|^2 overflowed, or divided by zero)
    with pytest.raises(Singular):
        isotropy_at_infinity(I, q(t))
    with pytest.raises(Singular):
        halfspace_general(q(t), ZERO, I)


def test_halfspace_general_spot_values():
    f = halfspace_general(ONE, ZERO, I)
    assert f(INFINITY) == I
    assert apply(f, ONE).w > 0.0

    g = halfspace_general(ONE, I, ZERO)
    assert g.matrix.close_to(normalize(Mat2H(ZERO, ONE, ONE, I)), tol=1e-12)
    assert GroupTag.SL_HPLUS in classify(g.matrix)

    h = halfspace_general(q(2), ZERO, ZERO)
    assert h(q(2)).close_to(q(2), tol=1e-12)  # 4 q^-1 at q = 2
    assert h(ONE).close_to(q(4), tol=1e-12)


def test_halfspace_general_errors():
    with pytest.raises(ConstraintViolation):
        halfspace_general(ZERO, ZERO, I)
    with pytest.raises(ConstraintViolation):
        halfspace_general(ONE, ZERO, ONE)  # gamma must be imaginary
    with pytest.raises(ConstraintViolation):
        halfspace_general(ONE, ONE, I)  # beta alpha^-1 must be imaginary


def test_halfspace_members_preserve_boundary_and_interior():
    rng = make_rng(49)
    for _ in range(50):
        A = random_slhplus(rng)
        p = random_imaginary(rng, 2.0)
        image = apply(A, p)
        if is_infinity(image) or abs(image) > 1e6:
            continue
        assert abs(image.w) <= 1e-9 * (1.0 + abs(image))
        one_image = apply(A, ONE)
        assert not is_infinity(one_image) and one_image.w > 0.0
