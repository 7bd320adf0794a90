"""2x2 quaternionic matrices: determinant laws, inverses, group tags."""

import math
import warnings

import numpy as np
import pytest

from qmobius.errors import Singular
from qmobius.mat2h import (
    CAYLEY,
    CAYLEY_INV,
    GroupTag,
    H_FORM,
    K_FORM,
    Mat2H,
    cayley_conjugate,
    cayley_conjugate_inv,
    classify,
    det_h,
    det_h_many,
    inverse,
    inverse_form_a,
    inverse_form_b,
    mat_mul_many,
    normalize,
    qmul_planes,
)
from qmobius.quat import I, J, K, ONE, ZERO, Quaternion, get_tolerance
from qmobius.sampling import (
    make_rng,
    random_invertible_matrix,
    random_matrix,
    random_quaternion,
    random_slhplus,
    random_sp11,
)


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


def real_mat(a, b, c, d):
    return Mat2H(q(a), q(b), q(c), q(d))


def max_entry(A: Mat2H) -> float:
    return max(abs(A.a), abs(A.b), abs(A.c), abs(A.d))


def close_mats(A: Mat2H, B: Mat2H, tol: float) -> bool:
    diff = Mat2H(A.a - B.a, A.b - B.b, A.c - B.c, A.d - B.d)
    return max_entry(diff) <= tol


IDENT = Mat2H.identity()


# -- determinant ---------------------------------------------------------


def test_det_spot_values():
    assert det_h(IDENT) == 1.0
    assert det_h(real_mat(1, 2, 3, 4)) == pytest.approx(2.0, abs=1e-15)
    assert det_h(Mat2H(I, I, ONE, ONE)) == pytest.approx(0.0, abs=1e-15)
    assert det_h(Mat2H(ONE, I, J, K)) == pytest.approx(2.0, abs=1e-12)


def test_det_matches_complex_modulus():
    # on the complex subfield span(1, i) the value is |ad - bc|
    rng = make_rng(11)
    for _ in range(200):
        za, zb, zc, zd = (complex(*rng.uniform(-3, 3, size=2)) for _ in range(4))
        A = Mat2H(*(q(z.real, z.imag) for z in (za, zb, zc, zd)))
        expected = abs(za * zd - zb * zc)
        assert det_h(A) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_binet_fuzz():
    rng = make_rng(12)
    for _ in range(300):
        A = random_matrix(rng, 10.0)
        B = random_matrix(rng, 10.0)
        lhs = det_h(A @ B)
        rhs = det_h(A) * det_h(B)
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + rhs)


def test_row_and_column_scaling():
    rng = make_rng(13)
    for _ in range(100):
        A = random_matrix(rng, 2.0)
        lam = random_quaternion(rng, 2.0)
        mu = random_quaternion(rng, 2.0)
        base = det_h(A)
        col = Mat2H(A.a * lam, A.b, A.c * lam, A.d)
        assert det_h(col) == pytest.approx(abs(lam) * base, rel=1e-9, abs=1e-12)
        row = Mat2H(mu * A.a, mu * A.b, A.c, A.d)
        assert det_h(row) == pytest.approx(abs(mu) * base, rel=1e-9, abs=1e-12)
        added = Mat2H(A.a + A.c, A.b + A.d, A.c, A.d)
        assert det_h(added) == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_det_transpose_conjugate():
    rng = make_rng(14)
    for _ in range(100):
        A = random_matrix(rng, 3.0)
        assert det_h(A.transpose_conj()) == pytest.approx(det_h(A), rel=1e-9, abs=1e-12)


def test_det_real_scalar_multiple():
    rng = make_rng(15)
    for _ in range(50):
        A = random_matrix(rng, 2.0)
        t = float(rng.uniform(0.1, 3.0))
        assert det_h(A.scalar_mul(t)) == pytest.approx(t * t * det_h(A),
                                                       rel=1e-9, abs=1e-12)


# -- multiplication ------------------------------------------------------


def test_mat_mul_identity_and_noncommutativity():
    A = Mat2H(I, ZERO, ZERO, ONE)
    B = Mat2H(J, ZERO, ZERO, ONE)
    assert A @ IDENT == A
    assert A @ B == Mat2H(K, ZERO, ZERO, ONE)
    assert B @ A == Mat2H(-K, ZERO, ZERO, ONE)


def test_bulk_rows_match_scalar_product():
    rng = make_rng(16)
    lhs = rng.normal(size=(20, 4))
    rhs = rng.normal(size=(20, 4))
    planes = np.array(qmul_planes(lhs.T, rhs.T))
    for i in range(20):
        p = Quaternion(*(float(t) for t in lhs[i]))
        r = Quaternion(*(float(t) for t in rhs[i]))
        assert Quaternion(*(float(t) for t in planes[:, i])) == p * r


def test_bulk_matrix_ops_match_scalar():
    rng = make_rng(17)
    stack_a = rng.uniform(-2.0, 2.0, size=(30, 4, 4))
    stack_b = rng.uniform(-2.0, 2.0, size=(30, 4, 4))
    prod = mat_mul_many(stack_a, stack_b)
    dets = det_h_many(stack_a)
    for i in range(30):
        A = Mat2H(*(Quaternion(*(float(t) for t in row)) for row in stack_a[i]))
        B = Mat2H(*(Quaternion(*(float(t) for t in row)) for row in stack_b[i]))
        P = A @ B
        for k, entry in enumerate(P):
            got = Quaternion(*(float(t) for t in prod[i, k]))
            assert abs(got - entry) <= 1e-12
        assert dets[i] == pytest.approx(det_h(A), rel=1e-12, abs=1e-12)


def test_bulk_det_clamps_rank_one_noise():
    # exact rank-one rows: the radicand cancels to float noise and must
    # clamp to a tiny nonnegative value rather than raise
    rng = make_rng(18)
    rows = []
    for _ in range(10):
        c = random_quaternion(rng, 2.0)
        d = random_quaternion(rng, 2.0)
        k = random_quaternion(rng, 2.0)
        rows.append([tuple(k * c), tuple(k * d), tuple(c), tuple(d)])
    dets = det_h_many(np.array(rows, dtype=float))
    assert (dets <= 1e-5).all()


def as_mat(row) -> Mat2H:
    return Mat2H(*(Quaternion(*(float(t) for t in e)) for e in row))


def pinned_stack(rng, n):
    """Random rows, with every third row rank-one and every third
    near-singular (rank-one plus a 1e-9 perturbation)."""
    stack = rng.uniform(-2.0, 2.0, size=(n, 4, 4))
    for i in range(1, n, 3):
        c, d, k = (random_quaternion(rng, 2.0) for _ in range(3))
        stack[i] = [tuple(k * c), tuple(k * d), tuple(c), tuple(d)]
        if i + 1 < n:
            stack[i + 1] = stack[i] + 1e-9 * rng.normal(size=(4, 4))
    return stack


def assert_products_exact(prod, stack_a, stack_b):
    assert prod.shape == stack_a.shape
    for i in range(len(stack_a)):
        assert as_mat(prod[i]) == as_mat(stack_a[i]) @ as_mat(stack_b[i])


def test_bulk_product_pinned_exactly_to_scalar():
    rng = make_rng(19)
    stack_a, stack_b = pinned_stack(rng, 60), pinned_stack(rng, 60)
    assert_products_exact(mat_mul_many(stack_a, stack_b), stack_a, stack_b)


def test_bulk_product_pinned_on_non_contiguous_input():
    rng = make_rng(20)
    stack_a, stack_b = pinned_stack(rng, 30), pinned_stack(rng, 30)
    rev = stack_a[::-1]
    assert not rev.flags.c_contiguous
    assert_products_exact(mat_mul_many(rev, stack_b), rev, stack_b)
    prod = mat_mul_many(stack_a, stack_b)
    assert not prod.flags.c_contiguous  # a transposed view of the planes
    assert_products_exact(mat_mul_many(prod, stack_b), np.array(prod), stack_b)
    assert_products_exact(mat_mul_many(stack_b, prod), stack_b, np.array(prod))


def test_bulk_det_of_product_view_matches_copy_bitwise():
    rng = make_rng(21)
    prod = mat_mul_many(pinned_stack(rng, 60), pinned_stack(rng, 60))
    assert np.array_equal(det_h_many(prod), det_h_many(np.ascontiguousarray(prod)))


def test_bulk_det_rescues_rows_beyond_squared_norm_range():
    # t = |a|^2|d|^2 + |c|^2|b|^2 overflows, underflows, and underflows on
    # a subnormal row; the last row's det_h overflows, as in the scalar
    rng = make_rng(22)
    extreme = [[[1e100, 0, 0, 0], [0] * 4, [0] * 4, [1e100, 0, 0, 0]],
               [[1e-100, 0, 0, 0], [0] * 4, [0] * 4, [1e-100, 0, 0, 0]],
               [[1e-310, 0, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0]],
               [[1e200, 0, 0, 0], [0] * 4, [0] * 4, [1e200, 0, 0, 0]]]
    stack = rng.uniform(-2.0, 2.0, size=(12, 4, 4))
    stack[1::3] = extreme
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = det_h_many(stack)
    assert list(dets[1::3]) == [1e200, 1e-200, 1e-310, math.inf]
    for row, det in zip(stack, dets):
        assert det == pytest.approx(det_h(as_mat(row)), rel=1e-12, abs=1e-12)


# -- inverses ------------------------------------------------------------


def test_inverse_spot_values():
    assert inverse(IDENT) == IDENT
    got = inverse(Mat2H(I, ZERO, ZERO, J))
    assert close_mats(got, Mat2H(-I, ZERO, ZERO, -J), 1e-15)


def test_inverse_singular_raises():
    with pytest.raises(Singular):
        inverse(Mat2H(I, I, ONE, ONE))
    with pytest.raises(Singular):
        inverse(Mat2H(ZERO, ZERO, ZERO, ZERO))


def test_inverse_fuzz():
    rng = make_rng(16)
    for _ in range(300):
        A = random_invertible_matrix(rng, 2.0)
        Ainv = inverse(A)
        assert close_mats(A @ Ainv, IDENT, 1e-8)
        assert close_mats(Ainv @ A, IDENT, 1e-8)


def test_inverse_forms_agree():
    rng = make_rng(17)
    checked = 0
    while checked < 200:
        A = random_invertible_matrix(rng, 2.0)
        if abs(A.a) < 0.1 or abs(A.b) < 0.1:
            continue
        fa = inverse_form_a(A)
        fb = inverse_form_b(A)
        assert close_mats(fa, fb, 1e-8)
        checked += 1


def test_inverse_pivots_on_b_when_a_vanishes():
    A = Mat2H(ZERO, ONE, ONE, ONE)
    Ainv = inverse(A)
    assert close_mats(A @ Ainv, IDENT, 1e-12)


def test_inverse_pivots_on_the_larger_entry_at_small_scale():
    # a is nonzero but 2e-9 of the entry scale; pivoting on it would cost
    # about 2e-9 of the residual
    A = Mat2H(Quaternion(2e-12, 0.0, 0.0, 0.0), Quaternion(1e-3, 0.0, 0.0, 0.0),
              Quaternion(1e-3, 0.0, 0.0, 0.0), Quaternion(1e-3, 0.0, 0.0, 0.0))
    assert close_mats(A @ inverse(A), IDENT, 1e-12)


# -- normalization -------------------------------------------------------


def test_normalize():
    rng = make_rng(18)
    for _ in range(100):
        A = random_invertible_matrix(rng, 3.0)
        assert det_h(normalize(A)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(Singular):
        normalize(Mat2H(I, I, ONE, ONE))


# -- classification ------------------------------------------------------


def test_classify_identity():
    tags = classify(IDENT)
    assert tags == {GroupTag.GL2H, GroupTag.SL2H, GroupTag.SP11,
                    GroupTag.SL_HPLUS, GroupTag.CENTER_GL, GroupTag.CENTER_SL}


def test_classify_boost():
    c, s = math.cosh(1.0), math.sinh(1.0)
    A = real_mat(c, s, s, c)
    tags = classify(A)
    assert GroupTag.SP11 in tags
    assert GroupTag.SL2H in tags


def test_classify_antidiagonal():
    tags = classify(K_FORM)
    assert GroupTag.SL_HPLUS in tags
    assert GroupTag.SP11 not in tags


def test_classify_center():
    tags = classify(IDENT.scalar_mul(2.0))
    assert GroupTag.CENTER_GL in tags
    assert GroupTag.CENTER_SL not in tags
    assert classify(Mat2H(ZERO, ZERO, ZERO, ZERO)) == set()


def test_classify_random_members():
    rng = make_rng(19)
    for _ in range(50):
        assert GroupTag.SP11 in classify(random_sp11(rng))
        assert GroupTag.SL_HPLUS in classify(random_slhplus(rng))


def test_slhplus_closed_under_product_and_inverse():
    rng = make_rng(20)
    for _ in range(50):
        A = random_slhplus(rng)
        B = random_slhplus(rng)
        assert GroupTag.SL_HPLUS in classify(normalize(A @ B))
        assert GroupTag.SL_HPLUS in classify(normalize(inverse(A)))


# -- Cayley conjugation --------------------------------------------------


def form_residual(M: Mat2H, form: Mat2H) -> float:
    left = M.transpose_conj() @ form @ M
    diff = Mat2H(left.a - form.a, left.b - form.b, left.c - form.c, left.d - form.d)
    return max_entry(diff)


def test_cayley_matrices_are_inverse():
    assert close_mats(CAYLEY @ CAYLEY_INV, IDENT, 1e-15)
    assert close_mats(CAYLEY_INV @ CAYLEY, IDENT, 1e-15)


def test_cayley_conjugate_identity():
    assert close_mats(cayley_conjugate(IDENT), IDENT, 1e-15)


def test_cayley_conjugate_antidiagonal_lands_in_ball_group():
    M = cayley_conjugate(K_FORM)
    assert form_residual(M, H_FORM) <= 1e-12


def test_cayley_conjugate_random_directions():
    rng = make_rng(21)
    for _ in range(50):
        A = random_slhplus(rng)
        assert GroupTag.SP11 in classify(cayley_conjugate(A))
        B = random_sp11(rng)
        assert form_residual(cayley_conjugate_inv(B), K_FORM) <= 1e-9
        assert close_mats(cayley_conjugate_inv(cayley_conjugate(A)), A, 1e-12)


# -- classify's closed form against the products ---------------------------


def form_tags_by_products(A: Mat2H) -> set:
    """classify's form tags, from the products conj-transpose(A) F A."""
    atol, rtol = get_tolerance()
    thr = atol + rtol * (1.0 + max_entry(A) ** 2)
    return {tag for tag, form in ((GroupTag.SP11, H_FORM), (GroupTag.SL_HPLUS, K_FORM))
            if form_residual(A, form) <= thr}


def step(M: Mat2H, h: float, D: Mat2H) -> Mat2H:
    return Mat2H(*(p + h * q for p, q in zip(M, D)))


def test_classify_forms_match_the_products():
    rng = make_rng(23)
    atol, rtol = get_tolerance()
    mats = [IDENT, -IDENT, H_FORM, K_FORM]
    mats += [random_matrix(rng, 2.0) for _ in range(100)]
    for _ in range(50):
        for M, tag, form in ((random_sp11(rng), GroupTag.SP11, H_FORM),
                             (random_slhplus(rng), GroupTag.SL_HPLUS, K_FORM)):
            mats.append(M)
            # the residual grows linearly along a direction D at these
            # steps: put it at 0.9 and at 1.1 of the threshold
            D = random_matrix(rng, 1.0)
            slope = form_residual(step(M, 1e-7, D), form) / 1e-7
            thr = atol + rtol * (1.0 + max_entry(M) ** 2)
            inside, outside = (step(M, k * thr / slope, D) for k in (0.9, 1.1))
            assert form_tags_by_products(inside) == {tag}
            assert form_tags_by_products(outside) == set()
            mats += [inside, outside]
    for A in mats:
        assert classify(A) & {GroupTag.SP11, GroupTag.SL_HPLUS} == form_tags_by_products(A)


# -- serialization -------------------------------------------------------


def test_json_round_trip():
    rng = make_rng(22)
    for _ in range(20):
        A = random_matrix(rng, 2.0)
        assert Mat2H.from_json(A.to_json()) == A
