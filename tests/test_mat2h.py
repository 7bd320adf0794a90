"""2x2 quaternionic matrices: determinant laws, inverses, group tags."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qmobius import mat2h
from qmobius.errors import Singular
from qmobius.mat2h import (
    CAYLEY,
    CAYLEY_INV,
    GroupTag,
    Mat2H,
    SINGULAR_REL,
    cayley_conjugate,
    cayley_conjugate_inv,
    classify,
    det_h,
    det_h_many,
    inverse,
    inverse_form_a,
    inverse_form_b,
    mat_mul_many,
    norm_sq_into,
    normalize,
    qmul_into,
    qmul_planes,
)
from qmobius.quat import (N2_HUGE, N2_TINY, TOL, I, J, K, ONE, ZERO, Quaternion, _ldexp_q,
                          bound)
from qmobius.sampling import (
    make_rng,
    random_invertible_matrix,
    random_matrix,
    random_quaternion,
    random_slhplus,
    random_sp11,
    random_unit_quaternion,
)

import exact
from pins import outcome


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


H_FORM = Mat2H(ONE, ZERO, ZERO, -ONE)  # diag(1, -1), the form Sp11 preserves
K_FORM = Mat2H(ZERO, ONE, ONE, ZERO)  # antidiag(1, 1), the form SLHplus preserves


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


# -- det_h against exact references ----------------------------------------

# two matrices whose columns split at 1e+-155 and 1e+-200, where balancing
# the rows once took b and d to subnormals and gave 0; det_h is 1 and 2
SPLIT_COLUMNS = (Mat2H(q(1e155), q(1e-155), q(1e155), q(2e-155)),
               Mat2H(q(1e200), q(1e-200), q(1e200), q(3e-200)))


def exact_det_cases():
    """Interior, near-singular (rank one plus a relative 1e-4 or 1e-8),
    rank-one matrices at scales 1, 1e+-150, 1e155 (where |a||d| and |c||b|
    overflow but det_h need not) and 1e+-300, and matrices whose rows or
    columns are split by those scales; last, b c / |a| below the normal
    range and a rank-one matrix whose every product overflows."""
    rng = make_rng(3)
    for scale in (1.0, 1e150, 1e-150, 1e155, 1e300, 1e-300):
        for p in (None, 1e-4, 1e-8, 0.0):
            for _ in range(12):
                M = random_matrix(rng, scale)
                if p is not None:
                    k = random_quaternion(rng, 1.0)
                    M = Mat2H(k * M.c, k * M.d, M.c, M.d)
                    M = Mat2H(*(x + random_quaternion(rng, p * scale) for x in M)) if p else M
                yield M
    for s in (1e150, 1e300, 1e-150, 1e-300):
        for _ in range(12):
            M = random_matrix(rng, 1.0)
            k = random_quaternion(rng, 1.0)
            for A in (M, Mat2H(k * M.c, k * M.d, M.c, M.d)):
                yield Mat2H(A.a * s, A.b * s, A.c * (1.0 / s), A.d * (1.0 / s))
                yield Mat2H(A.a * s, A.b * (1.0 / s), A.c * s, A.d * (1.0 / s))
    yield from SPLIT_COLUMNS
    yield Mat2H(q(1e200), q(1e-200), q(1.0), q(0.0))
    yield Mat2H(q(1e160), q(1e160), q(1e160), q(1e160))


def det_h_err(got: float, A: Mat2H) -> float:
    """|got - det_h(A)| over the bound 8 eps min(scale^2, m) + 2^-1071: det_h(A)
    the 50-digit root of exact.det_h_sq, m the root of |a|^2 |d|^2 + |b|^2 |c|^2
    (at most |a||d| + |b||c|, a real bound where rows or columns split) and
    2^-1071 a few subnormal spacings.  0 for inf where the exact value
    overflows."""
    n2 = [exact.norm_sq(e) for e in A]
    with localcontext(exact._DEC):
        want = exact.decimal(exact.det_h_sq(A)).sqrt()
        if want >= Decimal(2.0 ** 1023) * (2 - Decimal(2) ** -53):
            return 0.0 if got == math.inf else math.inf
        mixed = exact.decimal(n2[0] * n2[3] + n2[1] * n2[2]).sqrt()
        bound = 8 * Decimal(exact.EPS) * min(exact.decimal(max(n2)), mixed)
        return float(abs(Decimal(got) - want) / (bound + Decimal(2.0 ** -1071)))


def test_det_h_and_det_h_many_match_exact_references():
    cases = list(exact_det_cases())
    many = det_h_many(np.array([[tuple(e) for e in A] for A in cases]))
    for A, dh in zip(cases, many):
        assert det_h_err(det_h(A), A) <= 1.0, A
        assert det_h_err(float(dh), A) <= 1.0, A
    assert [det_h(A) for A in SPLIT_COLUMNS] == [1.0, 2.0]
    assert list(det_h_many(np.array([[tuple(e) for e in A] for A in SPLIT_COLUMNS]))) == [1.0, 2.0]


def test_bulk_det_calls_the_scalar_only_beyond_the_planes_range(monkeypatch):
    rng = make_rng(24)
    n = 10_000
    stack = rng.uniform(-2.0, 2.0, size=(n, 4, 4))
    k, c, d = (rng.uniform(-2.0, 2.0, size=(4, n)) for _ in range(3))
    rank_one = np.stack([np.array(qmul_planes(k, c)).T, np.array(qmul_planes(k, d)).T,
                         c.T, d.T], axis=1)
    stack[1::3] = rank_one[1::3]
    stack[2::3] = rank_one[2::3] + 1e-8 * rng.normal(size=(len(stack[2::3]), 4, 4))
    calls, scalar = [], mat2h.det_h  # det_h_many's calls of the scalar det_h
    monkeypatch.setattr(mat2h, "det_h", lambda A: calls.append(A) or scalar(A))
    dets = det_h_many(stack)
    assert calls == []
    assert (dets[1::3] <= 8 * exact.EPS * (stack[1::3] ** 2).sum(axis=2).max(axis=1)).all()
    # the rescue test's four extreme rows take one scalar call each, and no
    # other row does (the test's own det_h is not the patched one)
    test_bulk_det_rescues_rows_beyond_squared_norm_range()
    assert [A.a.w for A in calls] == [1e100, 1e-100, 1e-310, 1e200]


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
    # exact rank-one rows: the Schur complement is rounding noise, so det_h
    # is a few eps times the squared entry scale, never more
    rng = make_rng(18)
    rows = []
    for _ in range(10):
        c = random_quaternion(rng, 2.0)
        d = random_quaternion(rng, 2.0)
        k = random_quaternion(rng, 2.0)
        rows.append([tuple(k * c), tuple(k * d), tuple(c), tuple(d)])
    stack = np.array(rows, dtype=float)
    scale_sq = (stack * stack).sum(axis=2).max(axis=1)
    assert (det_h_many(stack) <= 8 * exact.EPS * scale_sq).all()


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


RESCUE_ROWS = [[[1e100, 0, 0, 0], [0] * 4, [0] * 4, [1e100, 0, 0, 0]],
               [[1e-100, 0, 0, 0], [0] * 4, [0] * 4, [1e-100, 0, 0, 0]],
               [[1e-310, 0, 0, 0], [0] * 4, [0] * 4, [1, 0, 0, 0]],
               [[1e200, 0, 0, 0], [0] * 4, [0] * 4, [1e200, 0, 0, 0]]]


def test_bulk_det_rescues_rows_beyond_squared_norm_range():
    # t = |a|^2|d|^2 + |c|^2|b|^2 overflows, underflows, and underflows on
    # a subnormal row; the last row's det_h overflows, as in the scalar
    rng = make_rng(22)
    stack = rng.uniform(-2.0, 2.0, size=(12, 4, 4))
    stack[1::3] = RESCUE_ROWS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dets = det_h_many(stack)
    assert list(dets[1::3]) == [1e200, 1e-200, 1e-310, math.inf]
    for row, det in zip(stack, dets):
        assert det == pytest.approx(det_h(as_mat(row)), rel=1e-12, abs=1e-12)


# -- the kernels against their expression forms, bit for bit ---------------


def expr_planes(M):
    return np.ascontiguousarray(M.transpose(1, 2, 0), dtype=float)


def reference_mat_mul_many(A, B):
    """mat_mul_many with each Hamilton product a numpy expression, as it was
    before the products were written in place."""
    a1, b1, c1, d1 = expr_planes(A)
    a2, b2, c2, d2 = expr_planes(B)
    out = np.empty((4, 4, a1.shape[1]))
    terms = ((a1, a2, b1, c2), (a1, b2, b1, d2), (c1, a2, d1, c2), (c1, b2, d1, d2))
    for entry, (l1, r1, l2, r2) in zip(out, terms):
        for comp, s, t in zip(entry, qmul_planes(l1, r1), qmul_planes(l2, r2)):
            np.add(s, t, out=comp)
    return out.transpose(2, 0, 1)


def expr_norm_sq(p):
    w, x, y, z = p
    return w * w + x * x + y * y + z * z


def reference_det_h_many(M):
    """det_h_many with each product and squared norm a numpy expression, as it
    was before they were written in place; it calls the scalar det_h through
    the module, as det_h_many does."""
    a, b, c, d = P = expr_planes(M)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a2 = expr_norm_sq(a)
        s = np.sqrt(a2)
        p = qmul_planes(c, a / s * np.array([[1.0], [-1.0], [-1.0], [-1.0]]))
        X = [s * dk - rk for dk, rk in zip(d, qmul_planes(p, b))]
        x2 = expr_norm_sq(X)
        redo = ~((a2 >= N2_TINY) & (a2 < N2_HUGE) & (x2 < N2_HUGE)
                 & (a2 * 2 ** 52 >= expr_norm_sq(b)))
        tiny = np.flatnonzero(x2 < N2_TINY)
        redo[tiny[np.any([Xk[tiny] for Xk in X], axis=0)]] = True
        det = np.sqrt(x2)
    for i in np.flatnonzero(redo):
        det[i] = mat2h.det_h(Mat2H(*(Quaternion(*e) for e in P[:, :, i].tolist())))
    return det


def assert_same_bits(got, want):
    """Every bit equal: signed zeros, infinities and nan payloads included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def kernel_input(name):
    rng = make_rng(25)
    stack = pinned_stack(rng, 60)
    if name == "pinned":
        return stack
    if name == "reversed view":
        return stack[::-1]
    if name == "product view":
        return mat_mul_many(stack, pinned_stack(rng, 60))
    if name == "rescue rows":
        return np.array(RESCUE_ROWS, dtype=float)
    if name == "small pivots":  # |a|^2 / |b|^2 = 2^-53 and 2^-51 by turns, about 2^-52
        stack[:, 0] = stack[:, 1] * np.where(np.arange(60) % 2, 2 ** -25.5, 2 ** -26.5)[:, None]
        return stack
    stack[::2, 1] = 0.0  # b = 0
    stack[::3, 0] = 0.0  # a = 0, a whole zero row where b is too
    stack[1::4, 2, 1:] = -0.0  # a real c with negative zeros
    stack[2::5, 3] = -0.0
    return stack


@pytest.mark.parametrize("name", ["pinned", "reversed view", "product view", "zero entries",
                                  "small pivots", "rescue rows"])
def test_bulk_kernels_bit_identical_to_their_expression_forms(name, monkeypatch):
    X = kernel_input(name)
    Y = make_rng(26).uniform(-2.0, 2.0, size=X.shape)
    for L, R in ((X, Y), (Y, X)):
        assert_same_bits(mat_mul_many(L, R), reference_mat_mul_many(L, R))
    calls, scalar = [], mat2h.det_h  # the rows each sends to the scalar det_h
    monkeypatch.setattr(mat2h, "det_h", lambda A: calls.append(A) or scalar(A))
    for M in (X, np.ascontiguousarray(X)):
        got = det_h_many(M)
        sent = calls.copy()
        calls.clear()
        assert_same_bits(got, reference_det_h_many(M))
        assert sent == calls
        assert len(sent) == {"zero entries": 20, "small pivots": 30, "rescue rows": 4}.get(name, 0)
        calls.clear()


def test_bulk_planes_start_on_cache_lines():
    # numpy's vector stores take about twice as long where they straddle two lines
    for shape in ((4, 4, 10_000), (3, 7), (5,)):
        assert mat2h._empty(*shape).__array_interface__["data"][0] % 64 == 0
    prod = mat_mul_many(np.ones((16, 4, 4)), np.ones((16, 4, 4)))
    assert prod.__array_interface__["data"][0] % 64 == 0 and prod.base.flags.c_contiguous


def test_in_place_product_and_norm_match_scalar_bit_for_bit():
    rng = make_rng(16)
    lhs = rng.normal(size=(4, 24))
    rhs = rng.normal(size=(4, 24))
    lhs[:, :4] = [[0.0, -0.0, 0.0, 1.0]] * 4  # signed zeros in every component
    rhs[:, :4] = [[-0.0, 0.0, 2.0, -0.0]] * 4
    prod = qmul_into(lhs, rhs, np.empty((4, 24)), np.empty(24))
    n2 = norm_sq_into(lhs, np.empty(24), np.empty(24))
    for i in range(24):
        p = Quaternion(*lhs[:, i].tolist())
        r = Quaternion(*rhs[:, i].tolist())
        assert_same_bits(prod[:, i], np.array(p * r))
        assert_same_bits(n2[i], np.float64(p.norm_sq()))


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


def _inverse_form_b_written_out(A: Mat2H) -> tuple:
    a, b, c, d = A
    bi = b.inverse()
    s = (c - d * bi * a).inverse()
    u = bi * a * s
    return -(s * d * bi), s, bi + u * d * bi, -u


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_inverse_form_b_is_form_a_of_the_column_swap_bit_for_bit(scale):
    # form b is form a of [[b, a], [d, c]] with its rows swapped; zeroed
    # components (complex and real entries) bring signed zeros into play
    rng = make_rng(24)
    for k in range(2000):
        A = random_invertible_matrix(rng, 1.0).scalar_mul(scale)
        if k % 2:
            A = Mat2H(*(Quaternion(e.w, e.x if k % 4 == 1 else 0.0, 0.0, -0.0) for e in A))
        got = [x.hex() for e in inverse_form_b(A) for x in e]
        assert got == [x.hex() for e in _inverse_form_b_written_out(A) for x in e], A


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


def test_inverse_suite_sees_a_nan_inverse_entry(monkeypatch):
    # a per-case max(abs(p - e) for ...) dropped the NaN: worst_identity read 1.1e-15
    from qmobius import selftest

    def nan_b(A):
        a, b, c, d = inverse(A)
        return Mat2H(a, Quaternion(math.nan, b.x, b.y, b.z), c, d)

    monkeypatch.setattr(selftest, "inverse", nan_b)
    report = selftest.inverse_suite(make_rng(102), 50).report()
    assert not report["ok"] and report["worst_err"] is None, report
    assert report["stats"]["worst_identity"] is None, report


def test_inverse_suite_sees_a_scaled_inverse_in_the_complex_image(monkeypatch):
    # A (A^-1 (1 + 1e-10)) is off the identity by 1e-10, inside worst_identity's
    # 1e-8, and the two forms never call inverse; chi(A)^-1 shares no formula with it
    from qmobius import selftest
    monkeypatch.setattr(selftest, "inverse", lambda A: inverse(A).scalar_mul(1.0 + 1e-10))
    report = selftest.inverse_suite(make_rng(102), 50).report()
    assert not report["ok"] and report["check"] == "worst_complex_inverse", report
    assert report["stats"]["worst_identity"] <= 1e-8, report


# -- normalization -------------------------------------------------------


def test_normalize():
    rng = make_rng(18)
    for _ in range(100):
        A = random_invertible_matrix(rng, 3.0)
        assert det_h(normalize(A)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(Singular):
        normalize(Mat2H(I, I, ONE, ONE))


# -- the scalar layer on components, pinned to the operator expressions ---


def _operator_matmul(A, B):
    a1, b1, c1, d1 = A
    a2, b2, c2, d2 = B
    return Mat2H(a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _operator_normalize(A):
    scale = max(abs(A.a), abs(A.b), abs(A.c), abs(A.d))
    if not N2_TINY <= scale * scale < N2_HUGE:
        e = math.frexp(scale)[1]
        return _operator_normalize(Mat2H(*(_ldexp_q(x, -e) for x in A)))
    dh = det_h(A)  # pinned to exact references above
    if dh <= SINGULAR_REL * scale * scale:
        raise Singular("singular")
    s = 1.0 / math.sqrt(dh)
    return Mat2H(A.a * s, A.b * s, A.c * s, A.d * s)


def _operator_inverse_form_a(A):
    a, b, c, d = A
    ai = a.inverse()
    s = (d - c * ai * b).inverse()
    return Mat2H(ai + ai * b * s * c * ai, -(ai * b * s), -(s * c * ai), s)


def _operator_inverse_form_b(A):
    a, b, c, d = A
    bi = b.inverse()
    s = (c - d * bi * a).inverse()
    return Mat2H(-(s * d * bi), s, bi + bi * a * s * d * bi, -(bi * a * s))


def _operator_scalar_mul(A, t):
    return Mat2H(A.a * t, A.b * t, A.c * t, A.d * t)


def _operator_entry_scale(A):
    return max(abs(A.a), abs(A.b), abs(A.c), abs(A.d))


FORM_TAGS = {GroupTag.SP11, GroupTag.SL_HPLUS}


def _operator_form_tags(A, reached):
    """classify's Sp11 and SLHplus decisions spelled with the operators; adds
    (tag, k, passed) to reached for each form test k that it evaluates."""
    a, b, c, d = A
    ac, cc = a.conj(), c.conj()
    scale = _operator_entry_scale(A)
    thr = bound(1.0 + scale * scale)
    tags = set()
    for tag, residuals in (
            (GroupTag.SP11, (lambda: abs(a.norm_sq() - c.norm_sq() - 1.0),
                             lambda: abs(ac * b - cc * d),
                             lambda: abs(b.norm_sq() - d.norm_sq() + 1.0))),
            (GroupTag.SL_HPLUS, (lambda: abs(2.0 * (cc * a).w),
                                 lambda: abs(cc * b + ac * d - 1.0),
                                 lambda: abs(2.0 * (d.conj() * b).w)))):
        for k, residual in enumerate(residuals):
            passed = residual() <= thr
            reached.add((tag, k, passed))
            if not passed:
                break
        else:
            tags.add(tag)
    return tags


def _signed_zeros(rng, A):
    """A with about half its components replaced by zeros of random sign."""
    return Mat2H(*(Quaternion(*(math.copysign(0.0, rng.normal()) if rng.random() < 0.5
                                else v for v in e)) for e in A))


def _right_real(A, m11, m12, m21, m22):
    """A [[m11, m12], [m21, m22]] for a real matrix M; it keeps a form F
    exactly when M^T F M = F, so each M below breaks one entry of it."""
    a, b, c, d = A
    return Mat2H(a * m11 + b * m21, a * m12 + b * m22, c * m11 + d * m21, c * m12 + d * m22)


def _form_members(rng):
    """Sp11, SLHplus and central members, and for each form test a member
    that passes the tests before it and fails that one."""
    boost = real_mat(math.cosh(346.0), math.sinh(346.0), math.sinh(346.0), math.cosh(346.0))
    stretch = real_mat(1e150, 0.0, 0.0, 1e-150)  # q -> 1e300 q keeps the half-space
    for _ in range(6):
        sp11, slh = random_sp11(rng), random_slhplus(rng)
        rot = Mat2H(random_unit_quaternion(rng), ZERO, ZERO, random_unit_quaternion(rng))
        t = float(rng.uniform(0.5, 2.0))
        for M, breaks in ((sp11, ((2, 0, 0, 1), (1, t, 0, math.hypot(1.0, t)), (1, 0, 0, 2))),
                          (slh, ((1, 0, t, 1), (2, 0, 0, 1), (1, t, 0, 1)))):
            yield M
            yield from (_right_real(M, *m) for m in breaks)
        yield from (rot @ boost @ sp11, slh @ stretch @ random_slhplus(rng))
    for s in (1.0, -1.0, 1e150, -1e150, 1e-150):
        yield IDENT.scalar_mul(s)
        yield Mat2H(q(s, 1e-6 * s), ZERO, ZERO, q(s, 1e-6 * s))  # off the real axis


def _layer_pin_cases():
    """Random, rank-one, near-singular, signed-zero and split-scale
    matrices at each scale; 1e+-150 and 1e+-200 take normalize's rescale.
    The members of the forms come at scales 1 and 1e+-150."""
    rng = make_rng(2027)
    for scale in (1.0, 1e3, 1e-3, 1e150, 1e-150, 1e200, 1e-200):
        for _ in range(30):
            M = random_matrix(rng, scale)
            k = random_quaternion(rng, 1.0)
            rank_one = Mat2H(k * M.c, k * M.d, M.c, M.d)
            yield M
            yield rank_one
            yield Mat2H(*(x + random_quaternion(rng, 1e-9 * scale) for x in rank_one))
            yield _signed_zeros(rng, M)
            yield Mat2H(M.a, M.b, M.c * (1.0 / scale), M.d * (1.0 / scale))
    for M in _form_members(make_rng(2028)):
        yield from (M, M.scalar_mul(1e150), M.scalar_mul(1e-150))


def test_scalar_layer_is_bit_identical_to_the_operator_expressions():
    cases = list(_layer_pin_cases())
    pairs = ((normalize, _operator_normalize),
             (inverse_form_a, _operator_inverse_form_a),
             (inverse_form_b, _operator_inverse_form_b))
    for A, B in zip(cases, cases[1:] + cases[:1]):
        for fast, reference in pairs:
            assert outcome(fast, A) == outcome(reference, A), (fast.__name__, A)
        assert outcome(Mat2H.__matmul__, A, B) == outcome(_operator_matmul, A, B), (A, B)
    scales = [A.entry_scale() for A in cases]
    rescued = sum(not N2_TINY <= s * s < N2_HUGE for s in scales)
    assert rescued > len(cases) // 3


def test_classify_scalar_mul_and_entry_scale_are_bit_identical_to_the_operator_forms():
    reached = set()
    for A in _layer_pin_cases():
        assert (outcome(lambda M: classify(M) & FORM_TAGS, A)
                == outcome(_operator_form_tags, A, reached)), A
        assert outcome(Mat2H.entry_scale, A) == outcome(_operator_entry_scale, A), A
        for t in (-1.0, 0.5, 1.0 / 3.0, 1e-300, 1e300):
            assert outcome(Mat2H.scalar_mul, A, t) == outcome(_operator_scalar_mul, A, t), (A, t)
    # every form test is evaluated and both passes and fails
    assert reached == {(tag, k, passed) for tag in FORM_TAGS for k in range(3)
                       for passed in (True, False)}


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


@pytest.mark.parametrize("A", [
    real_mat(math.cosh(20.0), math.sinh(20.0), math.sinh(20.0), math.cosh(20.0)),
    real_mat(1, 1, 1, 1).scalar_mul(1e100),
])
def test_classify_cannot_tell_a_far_boost_from_rank_one(A):
    # at t = 20, cosh t == sinh t in floats: the Sp(1,1) boost is exactly the
    # rank-one matrix it rounds to, so no float test can tell the two apart
    # once scale^2 / det_h passes 1 / eps; both get Sp11 and not GL2H
    assert det_h(A) == 0.0
    assert {tag.value for tag in classify(A)} == {"Sp11"}


def test_classify_antidiagonal():
    tags = classify(K_FORM)
    assert GroupTag.SL_HPLUS in tags
    assert GroupTag.SP11 not in tags


def test_classify_center():
    tags = classify(IDENT.scalar_mul(2.0))
    assert GroupTag.CENTER_GL in tags
    assert GroupTag.CENTER_SL not in tags
    assert classify(Mat2H(ZERO, ZERO, ZERO, ZERO)) == set()


@pytest.mark.parametrize("A, tags", [
    (IDENT.scalar_mul(1e-160), {"GL2H", "CenterGL"}),
    (IDENT.scalar_mul(1e-5), {"GL2H", "CenterGL"}),
    (IDENT, {"GL2H", "SL2H", "Sp11", "SLHplus", "CenterGL", "CenterSL"}),
    (IDENT.scalar_mul(1e160), {"GL2H", "CenterGL"}),
    (H_FORM, {"GL2H", "SL2H", "Sp11"}),
    (H_FORM.scalar_mul(1e160), {"GL2H"}),
    (real_mat(1, 1, 1, 1).scalar_mul(1e160), set()),  # rank one: det_h = 0
])
def test_classify_holds_at_every_scale(A, tags):
    # an absolute t tagged 1e-160 I nothing and 1e-5 I no GL2H; at 1e160,
    # det_h = inf passed isclose and inf residuals passed t + t inf (SLHplus
    # for the rank-one matrix); GL2H there must not take det_h = 0 for nonzero
    assert {tag.value for tag in classify(A)} == tags


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
    thr = TOL * (1.0 + max_entry(A) ** 2)
    return {tag for tag, form in ((GroupTag.SP11, H_FORM), (GroupTag.SL_HPLUS, K_FORM))
            if form_residual(A, form) <= thr}


def step(M: Mat2H, h: float, D: Mat2H) -> Mat2H:
    return Mat2H(*(p + h * q for p, q in zip(M, D)))


def test_classify_forms_match_the_products():
    rng = make_rng(23)
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
            thr = TOL * (1.0 + max_entry(M) ** 2)
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
