"""Comparison of the two invariant metrics through the complex pair chart."""

import cmath
import math

import pytest

from qmobius.errors import OutOfDomain
from qmobius.flt import INFINITY
from qmobius.hypgeo import distance_disc
from qmobius.kobayashi import (
    ball_automorphism,
    from_c2,
    kobayashi_distance,
    non_isometry_witness,
    to_c2,
)
from qmobius.quat import I, J, ONE, ZERO, Quaternion
from qmobius.sampling import make_rng, random_ball_point, random_unit_quaternion

import exact


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


def moduli(alpha, beta):
    """(Q, C): tanh^2 of the ball and the Kobayashi distance between
    (alpha, 0) and (0, beta), the squared image moduli of the witness."""
    p, r = from_c2((complex(alpha), 0j)), from_c2((0j, complex(beta)))
    return math.tanh(distance_disc(p, r)) ** 2, math.tanh(kobayashi_distance(p, r)) ** 2


# -- chart ---------------------------------------------------------------


def test_to_c2_spot_values():
    assert to_c2(I) == (1j, 0j)
    assert to_c2(J) == (0j, 1 + 0j)
    assert to_c2(q(1, 2, 3, 4)) == (1 + 2j, 3 + 4j)


def test_chart_round_trip():
    rng = make_rng(81)
    for _ in range(50):
        p = random_ball_point(rng)
        assert from_c2(to_c2(p)) == p
        z, w = to_c2(p)
        assert abs(z) ** 2 + abs(w) ** 2 == pytest.approx(p.norm_sq(), rel=1e-12)


# -- the closed-form distance --------------------------------------------


def test_kobayashi_from_origin_spot_values():
    assert kobayashi_distance(ZERO, ZERO) == 0.0
    assert kobayashi_distance(ZERO, q(0.5)) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
    assert kobayashi_distance(J * 0.5, ZERO) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
    rng = make_rng(83)
    for _ in range(200):  # artanh |q|, both metrics' value from 0
        p = random_ball_point(rng, 0.999)
        assert exact.rel_err(kobayashi_distance(ZERO, p), exact.dist_ball(ZERO, p)) <= 4 * exact.EPS


def test_from_origin_out_of_domain():
    with pytest.raises(OutOfDomain):
        kobayashi_distance(ZERO, q(1.5))
    with pytest.raises(OutOfDomain):
        kobayashi_distance(q(1.5), ZERO)


def test_kobayashi_distance_out_of_domain():
    outside = q(*exact.OUTSIDE_BY_ROUNDING)
    assert outside.norm_sq() < 1.0 and exact.one_minus_norm_sq(outside) < 0
    for bad in (ONE, J, q(0.6, 0.8), q(0, 0, 3, 4), INFINITY, outside):
        for args in ((bad, ZERO), (q(0.5), bad)):
            with pytest.raises(OutOfDomain):
                kobayashi_distance(*args)


@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10, 1e-13])
def test_kobayashi_distance_near_the_sphere_matches_exact_references(delta):
    rng = make_rng(11)
    for _ in range(200):
        p, r = exact.at_depth(rng, delta), exact.at_depth(rng, delta)
        assert exact.rel_err(kobayashi_distance(p, r), exact.dist_kob(p, r)) <= 4 * exact.EPS, (p, r)


def test_kobayashi_distance_of_nearby_points_keeps_its_digits():
    # |q - p|^2 below 2^-900 is taken at 2^600 scale, where it does not underflow:
    # points that differ only in tiny components, or lie near 0
    rng = make_rng(85)
    for _ in range(200):
        w, x = random_ball_point(rng, 0.999)[:2]
        t1, t2 = random_ball_point(rng) * 10.0 ** rng.uniform(-300, -160), random_ball_point(rng) * 1e-160
        for p, r in ((q(w, x, *t1[2:]), q(w, x, *t2[2:])), (t1, t2)):
            assert exact.rel_err(kobayashi_distance(p, r), exact.dist_kob(p, r)) <= 4 * exact.EPS, (p, r)


def test_kobayashi_distance_is_the_ball_distance_on_complex_lines_through_0():
    rng = make_rng(86)
    for _ in range(200):
        z1, z2 = to_c2(random_unit_quaternion(rng))
        lam, mu = (cmath.rect(rng.uniform(0.0, 0.99), rng.uniform(0.0, 2.0 * math.pi))
                   for _ in range(2))
        p, r = from_c2((lam * z1, lam * z2)), from_c2((mu * z1, mu * z2))
        d = distance_disc(p, r)
        assert abs(kobayashi_distance(p, r) - d) <= 8 * exact.EPS * d
        assert abs(kobayashi_distance(r, p) - d) <= 8 * exact.EPS * d


# -- the two image moduli ------------------------------------------------


def test_poincare_image_modulus_spot_values():
    assert moduli(0j, 0.5)[0] == pytest.approx(0.25, abs=1e-15)
    assert moduli(0.5, 0.5)[0] == pytest.approx(8.0 / 17.0, abs=1e-15)
    assert moduli(0.5, 0j)[0] == pytest.approx(0.25, abs=1e-15)


def test_kobayashi_image_modulus_spot_values():
    assert moduli(0j, 0.5)[1] == pytest.approx(0.25, abs=1e-15)
    assert moduli(0.5, 0.5)[1] == pytest.approx(0.4375, abs=1e-15)
    assert moduli(0.5, 0j)[1] == pytest.approx(0.25, abs=1e-15)


def test_image_moduli_with_phases():
    rng = make_rng(82)
    for _ in range(100):
        ra, rb = rng.uniform(0.0, 0.9, size=2)
        pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
        alpha = ra * cmath.exp(1j * pa)
        beta = rb * cmath.exp(1j * pb)
        qv, cv = moduli(alpha, beta)
        a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
        assert qv == pytest.approx((a2 + b2) / (1.0 + a2 * b2), rel=1e-14, abs=1e-15)
        assert cv == pytest.approx(a2 + (1.0 - a2) * b2, rel=1e-14, abs=1e-15)
        assert qv >= cv - 1e-15


def test_image_moduli_domain_checks():
    with pytest.raises(OutOfDomain):
        moduli(1.0, 0j)
    with pytest.raises(OutOfDomain):
        moduli(0j, 1.5)


# -- the witness ---------------------------------------------------------


def test_witness_report():
    report = non_isometry_witness(grid=10)
    w = report["witness"]
    assert w["alpha"] == 0.5 and w["beta"] == 0.5
    assert w["Q"] == pytest.approx(8.0 / 17.0, abs=1e-12)
    assert w["C"] == pytest.approx(0.4375, abs=1e-12)
    assert w["gap"] == pytest.approx(8.0 / 17.0 - 0.4375, abs=1e-12)
    assert w["gap"] > 1e-3

    dist = report["distances"]
    assert dist["poincare"] == pytest.approx(math.atanh(math.sqrt(8.0 / 17.0)),
                                             abs=1e-12)
    assert dist["kobayashi"] == pytest.approx(math.atanh(math.sqrt(0.4375)),
                                              abs=1e-12)
    assert dist["poincare"] > dist["kobayashi"]
    assert report["grid_max_gap"] >= w["gap"] - 1e-12


def test_gap_vanishes_exactly_on_the_axes():
    for t in (0.0, 0.2, 0.5, 0.8):
        for alpha, beta in ((t, 0j), (0j, t)):
            qv, cv = moduli(alpha, beta)
            assert abs(qv - cv) <= 1e-15


def test_gap_positive_off_the_axes():
    for a in (0.1, 0.3, 0.6, 0.85):
        for b in (0.1, 0.3, 0.6, 0.85):
            qv, cv = moduli(a, b)
            a2, b2 = a * a, b * b
            expected = a2 * b2 * (1.0 - a2) * (1.0 - b2) / (1.0 + a2 * b2)
            assert qv - cv == pytest.approx(expected, rel=1e-12, abs=1e-15)
            assert qv - cv > 0.0


# -- the complex-ball automorphism ---------------------------------------


def test_ball_automorphism_checks_its_domain():
    # outside the ball, and outside by the ball's rule (|a|^2 is 1 + 4.4e-17
    # exactly): a bare ValueError and ZeroDivisionError without the check
    for a, z in (((1.5 + 0j, 0j), (0j, 0j)), ((0.6 + 0j, 0.8 + 0j), (0.6 + 0j, 0.8 + 0j)),
                 ((0j, 0j), (1.5 + 0j, 0j))):
        with pytest.raises(OutOfDomain):
            ball_automorphism(a, z)


@pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-13])
def test_ball_automorphism_near_the_sphere(delta):
    # phi_a(a) = 0 exactly and phi_a(0) = a, though 1 - <a, a> is only about
    # 2 delta, and |phi_a(z)| = tanh d_K(a, z)
    rng = make_rng(85)
    for _ in range(100):
        p, q = exact.at_depth(rng, delta), random_ball_point(rng, 0.9)
        a, z = to_c2(p), to_c2(q)
        assert ball_automorphism(a, a) == (0j, 0j)
        assert max(abs(c - d) for c, d in zip(ball_automorphism(a, (0j, 0j)), a)) <= 1e-15
        phi = ball_automorphism(a, z)
        assert abs(math.hypot(*map(abs, phi)) - math.tanh(kobayashi_distance(p, q))) <= 1e-15


def test_ball_automorphism_swaps_a_and_zero_and_is_an_involution():
    rng = make_rng(84)
    for _ in range(200):
        a = to_c2(random_ball_point(rng, 0.95))
        z = to_c2(random_ball_point(rng, 0.95))
        assert max(abs(c) for c in ball_automorphism(a, a)) <= 1e-14
        assert max(abs(c - d) for c, d in zip(ball_automorphism(a, (0j, 0j)), a)) <= 1e-15
        back = ball_automorphism(a, ball_automorphism(a, z))
        assert max(abs(c - d) for c, d in zip(back, z)) <= 1e-13
