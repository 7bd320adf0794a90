"""Quaternion algebra: multiplication table, conjugation, inverses, tolerances."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmobius.errors import DivisionByZero, NonFiniteResult
from qmobius.quat import (
    I,
    J,
    K,
    ONE,
    TOL,
    ZERO,
    Quaternion,
    _tol,
    bound,
    coincident,
    isclose,
    negligible,
)

component = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quaternions = st.builds(Quaternion, component, component, component, component)


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


# -- multiplication ------------------------------------------------------


def test_multiplication_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert K * J == -I
    assert I * K == -J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_one_is_identity():
    p = q(0.3, -1.5, 2.0, 0.7)
    assert ONE * p == p
    assert p * ONE == p


def test_expand_binomial_product():
    assert (ONE + I) * (ONE + J) == q(1, 1, 1, 1)


def test_scalar_mixing():
    assert 2.0 * I == q(0, 2, 0, 0)
    assert I * 2.0 == q(0, 2, 0, 0)
    assert (ONE + I) - 1.0 == I
    assert 1.0 + I == ONE + I


@given(quaternions, quaternions, quaternions)
@settings(deadline=None)
def test_multiplication_associative(p, r, s):
    lhs = (p * r) * s
    rhs = p * (r * s)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@given(quaternions, quaternions)
@settings(deadline=None)
def test_norm_multiplicative(p, r):
    # |pq| = |p||q| within 1e-12 relative
    lhs = abs(p * r)
    rhs = abs(p) * abs(r)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


# -- conjugation ---------------------------------------------------------


def test_conjugate_values():
    assert I.conj() == -I
    assert q(1, 1, 1, 1).conj() == q(1, -1, -1, -1)


def test_real_part_of_conjugate_product():
    p, r = I + J, ONE + K
    assert (p.conj() * r.conj()).w == pytest.approx((r * p).w, abs=1e-15)
    assert (p.conj() * r.conj()).w == 0.0


@given(quaternions, quaternions)
@settings(deadline=None)
def test_conjugation_antiautomorphism(p, r):
    lhs = (p * r).conj()
    rhs = r.conj() * p.conj()
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


@given(quaternions)
@settings(deadline=None)
def test_conj_involution_and_norm(p):
    assert p.conj().conj() == p
    prod = p * p.conj()
    assert prod.im_norm() <= 1e-9 * (1.0 + prod.w)
    assert prod.w == pytest.approx(p.norm_sq(), rel=1e-12, abs=1e-12)


# -- inverse and division ------------------------------------------------


def test_inverse_values():
    assert I.inverse() == -I
    assert q(2).inverse() == q(0.5)
    assert (ONE + I).inverse().close_to(q(0.5, -0.5))


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        ZERO.inverse()
    with pytest.raises(DivisionByZero):
        q(-0.0, 0.0, -0.0, 0.0).inverse()


def _exact_inverse(p):
    n2 = sum(Fraction(v) ** 2 for v in p)
    return [float(Fraction(v) / n2) for v in p.conj()]


@pytest.mark.parametrize("p", [
    q(1e-160),  # |p|^2 underflowed to a subnormal: 1.1e-5 relative error
    q(1e160),  # |p|^2 overflowed, which made the inverse 0
    q(0, 0, 3e200, -4e200),
    q(3e-170, 4e-170, -1e-171, 2e-175),
    q(2e-308, 0, 1e-320),  # a subnormal component beside a normal one
    q(0, -1e-308),  # a subnormal whose inverse is near the top of float range
])
def test_inverse_beyond_squared_norm_range_is_accurate(p):
    # 1 ulp for one component; a sum of four squares rounds up to 4 times
    bound = 1 if sum(v != 0.0 for v in p) == 1 else 4
    for got, exact in zip(p.inverse(), _exact_inverse(p)):
        assert abs(got - exact) <= bound * math.ulp(exact)


def test_inverse_that_does_not_fit_a_float_is_non_finite():
    # 1/3e-320 is about 3.3e319; it was DivisionByZero, as if p were 0
    with pytest.raises(NonFiniteResult):
        q(3e-320).inverse()
    with pytest.raises(NonFiniteResult):
        q(0, 0, 0, -4e-309).inverse()


def test_inverse_of_non_finite_components_is_conj_over_norm_sq():
    inf = math.inf
    assert q(inf, 1).inverse()[1:] == (-0.0, -0.0, -0.0)
    assert all(math.isnan(v) for v in q(math.nan, 1).inverse())


@given(quaternions)
@settings(deadline=None)
def test_inverse_round_trip(p):
    assume(abs(p) > 1e-3)
    assert (p * p.inverse()).close_to(ONE, tol=1e-9)
    assert (p.inverse() * p).close_to(ONE, tol=1e-9)


def test_scalar_division_only():
    assert q(2, 4, 6, 8) / 2.0 == q(1, 2, 3, 4)
    with pytest.raises(TypeError):
        q(1) / I  # ambiguous side, must be explicit via inverse()


def test_unit_and_abs():
    p = q(3, 4)
    assert abs(p) == 5.0
    assert p.unit().close_to(q(0.6, 0.8))
    assert abs(p.unit()) == pytest.approx(1.0, abs=1e-15)


# -- formatting and serialization ---------------------------------------


@given(quaternions)
@settings(deadline=None)
def test_json_round_trip(p):
    assert Quaternion.from_json(p.to_json()) == p


# -- conjugation ---------------------------------------------------------


@given(quaternions, component, st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.floats(min_value=0.0, max_value=math.pi))
@settings(deadline=None)
def test_conjugation_preserves_spheres(p, x, y, phi, theta):
    # p s p^-1 keeps Re s and |Im s|, so it stays on the sphere x + yS of s
    assume(abs(p) > 1e-3)
    axis = q(0, math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
             math.cos(theta))
    image = p * (q(x) + axis * y) * p.inverse()
    assert abs(image.w - x) <= 1e-12 * (abs(x) + y)
    assert abs(image.im_norm() - y) <= 1e-12 * (abs(x) + y)


# -- tolerances ----------------------------------------------------------


def test_tolerance_override_and_restore():
    # tol= holds for its own call; the next call without it is back at TOL
    assert isclose(1.0, 1.0 + 1e-10)
    assert not isclose(1.0, 1.0 + 1e-10, tol=1e-14)
    assert isclose(1.0, 1.0 + 1e-10, tol=1e-9)
    assert isclose(1.0, 1.0 + 1e-10)


def test_one_tolerance_value():
    # tol= is one value t, used in each threshold as t m (bound)
    assert _tol(None) == TOL
    assert _tol(1e-3) == 1e-3 and type(_tol(0)) is float


def test_bound_is_relative_and_passes_nothing_where_it_is_not_finite():
    assert bound(2.0) == 2.0 * TOL and bound(2.0, 1e-3) == 2e-3 and bound(0.0) == 0.0
    assert bound(math.inf) == bound(math.nan) == bound(1e300, 1e10) == -1.0
    assert negligible(1e-10, 1.0) and not negligible(1e-8, 1.0)
    assert not negligible(0.0, math.inf)
    # no absolute term: values at 1e-160 are as distinct as at 1
    assert not isclose(1e-160, 2e-160) and isclose(1e-160, 1e-160 * (1.0 + 1e-12))


def test_non_finite_values_are_close_to_nothing():
    # |inf - 1| = inf passed t + t inf = inf
    inf = math.inf
    assert not isclose(inf, 1.0) and not isclose(1.0, inf) and not isclose(inf, inf)
    assert not q(inf).close_to(ONE) and not ONE.close_to(q(inf))
    assert not coincident(q(inf), ONE) and not coincident(q(0, inf), q(0, 1))


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_coincidence_is_dilation_invariant(scale):
    p, r = q(scale), q(scale, scale)
    assert not coincident(p, r)
    assert not coincident(ZERO, p)
    assert coincident(p, p)
    near = q(scale * (1.0 + 1e-12))
    assert coincident(p, near)
    assert not coincident(p, near, tol=1e-13)


@pytest.mark.parametrize("p, r", [(q(1.5e308), q(1.5e308, 1e308)),
                                  (q(1e308, 1e308, 1e308, 1e308), q(-1e308, 1e308, 1e308, 1e308)),
                                  (q(1e308), q(-1e308))])
def test_coincidence_where_a_modulus_overflows_is_taken_at_half_scale(p, r):
    # |r| (and |p - r|) overflow to inf, which made every such pair coincide
    assert not coincident(p, r)
    assert not coincident(p * 0.5, r * 0.5)
    assert coincident(r, r * (1.0 - 1e-12))
