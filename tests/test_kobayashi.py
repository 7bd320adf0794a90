"""Comparison of the two invariant metrics through the complex pair chart."""

import cmath
import math

import pytest

from qmobius.errors import OutOfDomain
from qmobius.kobayashi import (
    ball_automorphism,
    from_c2,
    kobayashi_from_origin,
    kobayashi_image_modulus_sq,
    non_isometry_witness,
    poincare_image_modulus_sq,
    to_c2,
)
from qmobius.quat import I, J, K, ONE, ZERO, Quaternion
from qmobius.sampling import make_rng, random_ball_point


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


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


# -- radial values -------------------------------------------------------


def test_kobayashi_from_origin_spot_values():
    assert kobayashi_from_origin(ZERO) == 0.0
    assert kobayashi_from_origin(q(0.5)) == pytest.approx(0.5 * math.log(3.0),
                                                          abs=1e-15)
    assert kobayashi_from_origin(J * 0.5) == pytest.approx(0.5 * math.log(3.0),
                                                           abs=1e-15)


def test_from_origin_out_of_domain():
    with pytest.raises(OutOfDomain):
        kobayashi_from_origin(q(1.5))


# -- the two image moduli ------------------------------------------------


def test_poincare_image_modulus_spot_values():
    assert poincare_image_modulus_sq(0j, 0.5 + 0j) == pytest.approx(0.25, abs=1e-15)
    assert poincare_image_modulus_sq(0.5 + 0j, 0.5 + 0j) == pytest.approx(
        8.0 / 17.0, abs=1e-12)
    assert poincare_image_modulus_sq(0.5 + 0j, 0j) == pytest.approx(0.25, abs=1e-12)


def test_kobayashi_image_modulus_spot_values():
    assert kobayashi_image_modulus_sq(0j, 0.5 + 0j) == pytest.approx(0.25, abs=1e-15)
    assert kobayashi_image_modulus_sq(0.5 + 0j, 0.5 + 0j) == pytest.approx(
        0.4375, abs=1e-12)
    assert kobayashi_image_modulus_sq(0.5 + 0j, 0j) == pytest.approx(0.25, abs=1e-12)


def test_image_moduli_with_phases():
    # the internal direct evaluation cross-checks the closed forms
    rng = make_rng(82)
    for _ in range(100):
        ra, rb = rng.uniform(0.0, 0.9, size=2)
        pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
        alpha = ra * cmath.exp(1j * pa)
        beta = rb * cmath.exp(1j * pb)
        qv = poincare_image_modulus_sq(alpha, beta)
        cv = kobayashi_image_modulus_sq(alpha, beta)
        a2, b2 = abs(alpha) ** 2, abs(beta) ** 2
        assert qv == pytest.approx((a2 + b2) / (1.0 + a2 * b2), rel=1e-10, abs=1e-12)
        assert cv == pytest.approx(a2 + (1.0 - a2) * b2, rel=1e-10, abs=1e-12)
        assert qv >= cv - 1e-12


def test_image_moduli_domain_checks():
    with pytest.raises(OutOfDomain):
        poincare_image_modulus_sq(1.0 + 0j, 0j)
    with pytest.raises(OutOfDomain):
        kobayashi_image_modulus_sq(0j, 1.5 + 0j)


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
        z = t + 0j
        assert abs(poincare_image_modulus_sq(z, 0j)
                   - kobayashi_image_modulus_sq(z, 0j)) <= 1e-12
        assert abs(poincare_image_modulus_sq(0j, z)
                   - kobayashi_image_modulus_sq(0j, z)) <= 1e-12


def test_gap_positive_off_the_axes():
    for a in (0.1, 0.3, 0.6, 0.85):
        for b in (0.1, 0.3, 0.6, 0.85):
            gap = poincare_image_modulus_sq(a + 0j, b + 0j) \
                - kobayashi_image_modulus_sq(a + 0j, b + 0j)
            a2, b2 = a * a, b * b
            expected = a2 * b2 * (1.0 - a2) * (1.0 - b2) / (1.0 + a2 * b2)
            assert gap == pytest.approx(expected, rel=1e-9, abs=1e-15)
            assert gap > 0.0


# -- the complex-ball automorphism ---------------------------------------


def test_ball_automorphism_swaps_a_and_zero_and_is_an_involution():
    rng = make_rng(84)
    for _ in range(200):
        a = to_c2(random_ball_point(rng, 0.95))
        z = to_c2(random_ball_point(rng, 0.95))
        assert max(abs(c) for c in ball_automorphism(a, a)) <= 1e-14
        assert max(abs(c - d) for c, d in zip(ball_automorphism(a, (0j, 0j)), a)) <= 1e-15
        back = ball_automorphism(a, ball_automorphism(a, z))
        assert max(abs(c - d) for c, d in zip(back, z)) <= 1e-13
