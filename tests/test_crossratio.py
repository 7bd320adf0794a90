"""Cross-ratio covariance, concyclicity, separation, and quadric transport."""

import math

import pytest

from qmobius.crossratio import (
    QuadricF3,
    cross_ratio,
    is_concyclic,
    on_quadric,
    transform_quadric,
)
from qmobius.errors import CoincidentPoints, GeometryError, NonFiniteResult
from qmobius.flt import (
    FLT,
    INFINITY,
    Dilation,
    Inversion,
    Rotation,
    Translation,
    apply,
    apply_generator,
    is_infinity,
)
from qmobius.mat2h import CAYLEY, Mat2H
from qmobius.quat import TOL, I, J, K, ONE, ZERO, Quaternion, coincident
from qmobius.sampling import (
    make_rng,
    random_ball_point,
    random_circle,
    random_invertible_matrix,
    random_plane_quadric,
    random_point_on_plane,
    random_point_on_sphere,
    random_quaternion,
    random_separated_points,
    random_sp11,
    random_sphere_quadric,
    random_unit_quaternion,
)

from pins import bits


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


# -- cross-ratio values --------------------------------------------------


def test_cross_ratio_fixes_first_argument_of_standard_frame():
    q0 = q(2, 1)
    assert cross_ratio(q0, ONE, ZERO, INFINITY).close_to(q0, tol=1e-15)


def test_cross_ratio_real_diameter_value():
    assert cross_ratio(ZERO, q(0.5), ONE, -ONE).close_to(q(3), tol=1e-15)


def test_cross_ratio_equal_first_pair_is_one():
    assert cross_ratio(I, I, ONE, -ONE) == ONE


def test_cross_ratio_coincidence_raises():
    with pytest.raises(CoincidentPoints):
        cross_ratio(ZERO, ONE, ONE, q(2))
    with pytest.raises(CoincidentPoints):
        cross_ratio(ZERO, ONE, q(2), q(2))
    with pytest.raises(CoincidentPoints):
        cross_ratio(INFINITY, ONE, ZERO, INFINITY)


def test_cross_ratio_single_infinite_slot():
    # dropping the two infinite factors leaves the finite ones
    assert cross_ratio(ZERO, q(0.5), INFINITY, -ONE).close_to(q(1.5), tol=1e-15)
    got = cross_ratio(INFINITY, q(0.5), ONE, -ONE)
    assert got.close_to((q(0.5) + ONE) * (q(0.5) - ONE).inverse(), tol=1e-12)


def _written_out_cross_ratio(q1, q2, q3, q4):
    """The reference product, each factor formed from the points."""
    result = ONE
    if q1 is not INFINITY and q3 is not INFINITY:
        result = result * (q1 - q3)
    if q1 is not INFINITY and q4 is not INFINITY:
        result = result * (q1 - q4).inverse()
    if q2 is not INFINITY and q4 is not INFINITY:
        result = result * (q2 - q4)
    if q2 is not INFINITY and q3 is not INFINITY:
        result = result * (q2 - q3).inverse()
    return result


def test_cross_ratio_matches_the_written_out_product():
    rng = make_rng(71)
    for n in range(300):
        pts = [random_quaternion(rng, 2.0) for _ in range(4)]
        if n % 4 == 0:  # real points with signed zeros, which ONE * d can flip
            pts = [Quaternion(p.w, *(math.copysign(0.0, v) for v in rng.normal(size=3)))
                   for p in pts]
        if n % 3 == 0:  # |d|^2 overflows: the inverses take their rescale
            pts = [p * 2.0 ** 520 for p in pts]
        for slot in (None, 0, 1, 2, 3):
            args = [INFINITY if i == slot else p for i, p in enumerate(pts)]
            assert bits(cross_ratio(*args)) == bits(_written_out_cross_ratio(*args))


def test_coincidence_names_the_first_pair_in_order():
    # pairs are checked (1,3), (1,4), (2,3), (2,4), (3,4); is_concyclic
    # checks (1,2) before all of them
    for pts, pair in (((ZERO, ONE, ZERO, ONE), "q1 and q3"),
                      ((ZERO, ONE, I, ZERO), "q1 and q4"),
                      ((ZERO, I, I, ONE), "q2 and q3"),
                      ((J, K, I, I), "q3 and q4"),
                      ((ZERO, ONE, INFINITY, ONE), "q2 and q4")):
        with pytest.raises(CoincidentPoints, match=pair):
            cross_ratio(*pts)
    with pytest.raises(CoincidentPoints, match="q1 and q2"):
        is_concyclic(ZERO, ZERO, INFINITY, INFINITY)


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_cross_ratio_decides_coincidence_as_coincident_does(scale):
    # cross_ratio unrolls coincident's rule; one pair is moved to 0.9 or
    # 1.1 of its threshold, and the first coincident pair must be the one named
    rng = make_rng(62)
    pairs = ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    seen = set()
    for k in range(400):
        pts = [p * scale for p in random_separated_points(rng, 4)]
        i, j = pairs[k % 5]
        gap = (0.9 if k % 10 < 5 else 1.1) * TOL * max(abs(pts[i]), abs(pts[j]))
        pts[j] = pts[i] + random_unit_quaternion(rng) * gap
        named = next((f"q{a + 1} and q{b + 1}" for a, b in pairs
                      if coincident(pts[a], pts[b])), None)
        seen.add(named)
        if named:
            with pytest.raises(CoincidentPoints, match=named):
                cross_ratio(*pts)
        else:
            cross_ratio(*pts)
    assert len(seen) == 6
    # a point with an inf or nan component coincides with nothing, so it gets
    # an error that names no coincidence, never a NaN cross-ratio
    base = [p * scale for p in random_separated_points(rng, 4)]
    for bad in (q(math.inf), q(1, 0, -math.inf), q(math.nan), q(1, math.nan, 0, math.inf)):
        for slots in ((0,), (1,), (2,), (3,), (0, 1)):
            pts = [bad if i in slots else p for i, p in enumerate(base)]
            assert not any(coincident(pts[a], pts[b]) for a, b in pairs)
            with pytest.raises(GeometryError) as caught:
                cross_ratio(*pts)
            assert not isinstance(caught.value, CoincidentPoints), (pts, caught.value)


def test_three_point_check_sees_a_scaled_cross_ratio(monkeypatch):
    # a real factor cancels in the laws and keeps a real cross-ratio real;
    # T(q1), T = three_point_map(q3, q4, q2), shares no arithmetic with it
    from qmobius import selftest
    monkeypatch.setattr(selftest, "cross_ratio",
                        lambda *pts: cross_ratio(*pts) * (1.0 + 1e-8))
    report = selftest.cross_ratio_suite(make_rng(104), 50).report()
    assert not report["ok"] and report["check"] == "worst_three_point", report


# -- covariance laws -----------------------------------------------------


def test_translation_and_dilation_invariance():
    rng = make_rng(51)
    for _ in range(100):
        pts = random_separated_points(rng, 4)
        cr = cross_ratio(*pts)
        b = random_quaternion(rng, 2.0)
        assert cross_ratio(*(p + b for p in pts)).close_to(cr, tol=1e-9)
        r = float(rng.uniform(0.2, 3.0))
        assert cross_ratio(*(p * r for p in pts)).close_to(cr, tol=1e-9)


def test_rotation_covariance():
    rng = make_rng(52)
    for _ in range(100):
        pts = random_separated_points(rng, 4)
        cr = cross_ratio(*pts)
        a = random_unit_quaternion(rng)
        got = cross_ratio(*(a * p for p in pts))
        assert got.close_to(a * cr * a.inverse(), tol=1e-9)


def test_inversion_covariance():
    # the conjugator is the inverse of the third point
    rng = make_rng(53)
    for _ in range(100):
        pts = random_separated_points(rng, 4, min_norm=0.15)
        cr = cross_ratio(*pts)
        got = cross_ratio(*(p.inverse() for p in pts))
        q3 = pts[2]
        assert got.close_to(q3.inverse() * cr * q3, tol=1e-9)


def test_orbit_keeps_real_part_and_imaginary_norm():
    rng = make_rng(54)
    for _ in range(50):
        pts = random_separated_points(rng, 4, min_norm=0.2)
        cr = cross_ratio(*pts)
        word = [Translation(random_quaternion(rng)),
                Rotation(random_unit_quaternion(rng)),
                Inversion(),
                Dilation(float(rng.uniform(0.3, 2.0))),
                Translation(random_quaternion(rng))]
        moved = pts
        for g in word:
            moved = [apply_generator(g, p) for p in moved]
        if any(is_infinity(p) for p in moved):
            continue
        got = cross_ratio(*moved)
        assert abs(got.w - cr.w) <= 1e-7 * (1.0 + abs(cr))
        assert abs(got.im_norm() - cr.im_norm()) <= 1e-7 * (1.0 + abs(cr))


def test_real_cross_ratio_is_invariant_on_the_nose():
    rng = make_rng(55)
    for _ in range(50):
        point = random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(b - a for a, b in zip(angles, angles[1:])) < 0.1:
            continue
        pts = [point(t) for t in angles]
        cr = cross_ratio(*pts)
        assert cr.im_norm() <= 1e-7 * (1.0 + abs(cr))
        b = random_quaternion(rng)
        moved = [apply_generator(Translation(b), p) for p in pts]
        moved = [apply_generator(Inversion(), p) for p in moved]
        if any(is_infinity(p) for p in moved):
            continue
        assert cross_ratio(*moved).close_to(cr, tol=1e-6)


def test_cyclically_arranged_points_give_large_ratio():
    rng = make_rng(56)
    for _ in range(100):
        point = random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(b - a for a, b in zip(angles, angles[1:])) < 0.1:
            continue
        cr = cross_ratio(*(point(t) for t in angles))
        assert cr.w > 1.0


# -- concyclicity and separation ----------------------------------------


def test_concyclic_spot_values():
    assert is_concyclic(ZERO, q(0.5), ONE, -ONE)
    assert not is_concyclic(ZERO, ONE, I, ONE + J)


def test_reflected_pair_lies_on_the_line_circle():
    # q1, q2, conj(q1)^-1, conj(q2)^-1 always share a circle; the common
    # cross-ratio value is (1-|q1|^2)(1-|q2|^2) / |1 - conj(q1) q2|^2
    q1, q2 = I * 0.5, J * 0.5
    r1, r2 = q1.conj().inverse(), q2.conj().inverse()
    assert is_concyclic(q1, q2, r1, r2)
    cr = cross_ratio(q1, q2, r1, r2)
    assert cr.close_to(q(9.0 / 17.0), tol=1e-12)

    rng = make_rng(57)
    for _ in range(100):
        q1 = random_ball_point(rng)
        q2 = random_ball_point(rng)
        if abs(q1) < 0.1 or abs(q2) < 0.1 or abs(q1 - q2) < 0.05:
            continue
        cr = cross_ratio(q1, q2, q1.conj().inverse(), q2.conj().inverse())
        expected = (1.0 - q1.norm_sq()) * (1.0 - q2.norm_sq()) / \
            (ONE - q1.conj() * q2).norm_sq()
        assert cr.close_to(q(expected), tol=1e-9)


def test_concyclic_coincident_base_pair_raises():
    with pytest.raises(CoincidentPoints):
        is_concyclic(I, I, ONE, -ONE)


def test_separation_matches_angular_interleaving():
    # on a common circle the cross-ratio is real, and negative exactly when
    # the pairs (q1, q2) and (q3, q4) separate each other
    rng = make_rng(58)
    for _ in range(50):
        point = random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(b - a for a, b in zip(angles, angles[1:])) < 0.1:
            continue
        t1, t2, t3, t4 = angles
        # (t1, t3) vs (t2, t4) interleave, (t1, t2) vs (t3, t4) do not
        for pts, sign in (((t1, t3, t2, t4), -1.0), ((t1, t2, t3, t4), 1.0)):
            cr = cross_ratio(*map(point, pts))
            assert cr.im_norm() <= 1e-6 * abs(cr) and cr.w * sign > 0.0


# -- quadrics ------------------------------------------------------------


UNIT_SPHERE = QuadricF3(1.0, ZERO, -1.0)


def test_on_quadric_spot_values():
    assert on_quadric(I, UNIT_SPHERE)
    assert not on_quadric(q(2), UNIT_SPHERE)
    assert on_quadric(ONE + I, QuadricF3(0.0, ONE, -2.0))


def test_quadric_rejects_all_zero():
    with pytest.raises(ValueError):
        QuadricF3(0.0, ZERO, 0.0)


def test_proportionality_is_projective():
    A = QuadricF3(1.0, ZERO, -4.0)
    assert A.proportional_to(QuadricF3(0.25, ZERO, -1.0))
    assert A.proportional_to(QuadricF3(-1.0, ZERO, 4.0))
    assert not A.proportional_to(QuadricF3(1.0, ZERO, 4.0))
    assert not A.proportional_to(QuadricF3(1.0, I, -4.0))


@pytest.mark.parametrize("s", [1e-10, 1e-160])
def test_quadric_predicates_are_blind_to_the_coefficient_scale(s):
    # an absolute t put (3, 0, 0, 0) on the small sphere, made its image
    # degenerate, and called two small quadrics proportional
    S = QuadricF3(s, ZERO, -s)
    assert on_quadric(ONE, S) and on_quadric(I, S)
    assert not on_quadric(q(3), S)
    assert transform_quadric(FLT(Mat2H.identity()), S).proportional_to(S)
    assert transform_quadric(Dilation(2.0), S).proportional_to(QuadricF3(1.0, ZERO, -4.0))
    assert not QuadricF3(s, ZERO, -s).proportional_to(QuadricF3(s, ONE * s, 0.0))


def test_transform_unit_sphere_spot_values():
    shifted = transform_quadric(Translation(ONE), UNIT_SPHERE)
    assert shifted.proportional_to(QuadricF3(1.0, -ONE, 0.0))
    assert on_quadric(ONE + I, shifted)  # |q - 1| = 1

    doubled = transform_quadric(Dilation(2.0), UNIT_SPHERE)
    assert doubled.proportional_to(QuadricF3(1.0, ZERO, -4.0))
    assert on_quadric(q(0, 0, 2), doubled)

    flipped = transform_quadric(Inversion(), UNIT_SPHERE)
    assert flipped.proportional_to(UNIT_SPHERE)

    spun = transform_quadric(Rotation(K), UNIT_SPHERE)
    assert spun.proportional_to(UNIT_SPHERE)


def test_an_image_quadric_beyond_float_range_raises():
    # the image's alpha (1e310) or gamma (2.25e308) does not fit a float; the
    # degeneracy check's squared entry scale raised a bare OverflowError here
    for g in (Dilation(1e-155), Translation(q(1.5e154))):
        with pytest.raises(NonFiniteResult):
            transform_quadric(g, UNIT_SPHERE)


def test_cayley_carries_the_unit_sphere_onto_the_boundary_plane():
    # the paper's Cayley map: boundary of the ball onto Re q = 0
    for f in (CAYLEY, FLT(CAYLEY)):
        assert transform_quadric(f, UNIT_SPHERE).proportional_to(QuadricF3(0.0, ONE, 0.0))


def test_ball_maps_keep_the_unit_sphere():
    rng = make_rng(61)
    inner = QuadricF3(1.0, ZERO, -0.25)  # |q| = 1/2 moves, with its points
    for _ in range(50):
        M = random_sp11(rng)
        assert transform_quadric(M, UNIT_SPHERE).proportional_to(UNIT_SPHERE)
        p = random_unit_quaternion(rng) * 0.5
        assert on_quadric(apply(M, p), transform_quadric(M, inner), tol=1e-9)


@pytest.mark.parametrize("s", [1e6, 1e-6, 1e150, 1e-150, 1e160, 1e-160])
def test_transform_is_blind_to_the_matrix_scale(s):
    rng = make_rng(62)
    for _ in range(20):
        M = random_invertible_matrix(rng, 1.5)
        Q, center, radius = random_sphere_quadric(rng)
        ref = transform_quadric(M, Q)
        image = apply(M, random_point_on_sphere(rng, center, radius))
        assert is_infinity(image) or on_quadric(image, ref, tol=1e-7)
        for f in (M.scalar_mul(s), FLT(M.scalar_mul(s)), M.scalar_mul(-s)):
            assert transform_quadric(f, Q).proportional_to(ref, tol=1e-12)


def test_far_generators_transform_exactly():
    # a matrix inverse would gate these generators out as numerically singular
    far = ONE * 1e4
    shifted = transform_quadric(Translation(far), UNIT_SPHERE)
    assert shifted.proportional_to(QuadricF3(1.0, -far, 1e8 - 1.0), tol=1e-15)
    assert on_quadric(far + I, shifted)
    grown = transform_quadric(Dilation(1e7), UNIT_SPHERE)
    assert grown.proportional_to(QuadricF3(1.0, ZERO, -1e14), tol=1e-15)
    assert on_quadric(J * 1e7, grown)


def test_transform_plane_through_origin_inverts_to_itself():
    plane = QuadricF3(0.0, I, 0.0)  # Re(i q) = 0
    image = transform_quadric(Inversion(), plane)
    assert image.proportional_to(QuadricF3(0.0, -I, 0.0))
    p = J  # on the plane, and J^-1 = -J stays on it
    assert on_quadric(apply_generator(Inversion(), p), image)


def test_pushforward_moves_points_with_the_set():
    rng = make_rng(59)
    for _ in range(200):
        if rng.uniform() < 0.5:
            Q, center, radius = random_sphere_quadric(rng)
            p = random_point_on_sphere(rng, center, radius)
        else:
            Q = random_plane_quadric(rng)
            p = random_point_on_plane(rng, Q)
        pick = rng.integers(0, 6)
        if pick == 4:
            g = random_invertible_matrix(rng, 1.5)
        elif pick == 5:
            g = FLT(random_sp11(rng))
        elif pick == 0:
            g = Translation(random_quaternion(rng, 2.0))
        elif pick == 1:
            g = Rotation(random_unit_quaternion(rng))
        elif pick == 2:
            g = Dilation(float(rng.uniform(0.3, 2.5)))
        else:
            if abs(p) < 0.05:
                continue
            g = Inversion()
        image = apply(g, p) if pick >= 4 else apply_generator(g, p)
        if is_infinity(image):
            continue
        assert on_quadric(image, transform_quadric(g, Q), tol=1e-7)


def test_circle_images_stay_concyclic():
    rng = make_rng(60)
    done = 0
    while done < 50:
        point = random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(b - a for a, b in zip(angles, angles[1:])) < 0.15:
            continue
        pts = [point(t) for t in angles]
        f = FLT(random_invertible_matrix(rng, 1.5))
        images = [f(p) for p in pts]
        if any(is_infinity(p) or abs(p) > 1e3 for p in images):
            continue
        if min(abs(a - b) for i, a in enumerate(images)
               for b in images[i + 1:]) < 1e-3:
            continue
        assert is_concyclic(*images, tol=1e-6)
        done += 1
