"""Invariant distance, geodesics, metric densities, and the boundary map."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from qmobius.crossratio import cross_ratio, is_concyclic
from qmobius.errors import (CoincidentPoints, GeometryError, NonFiniteResult, OutOfDomain,
                            TooFewSamples)
from qmobius.flt import (INFINITY, Dilation, Inversion, Rotation, Translation, apply,
                         apply_generator, apply_generators, is_infinity, three_point_map,
                         to_canonical_disc)
from qmobius.hypgeo import (
    _apply_matrix_to_reals,
    _arc,
    _arc_point,
    _direction,
    _end_beyond,
    _require_distinct,
    cayley,
    cayley_inv,
    distance_disc,
    distance_halfspace,
    geodesic_disc,
    geodesic_halfspace,
    geodesic_sample_halfspace,
    geodesic_sample_rows,
    integrated_length_disc,
    metric_disc,
    metric_halfspace,
    normalizing_map,
)
from qmobius.kobayashi import kobayashi_distance
from qmobius.mat2h import CAYLEY, Mat2H, qmul_planes
from qmobius.quat import I, J, K, N2_HUGE, N2_TINY, ONE, ZERO, Quaternion, bound
from qmobius.sampling import (
    make_rng,
    random_ball_point,
    random_halfspace_point,
    random_imaginary,
    random_imaginary_unit,
    random_quaternion,
    random_sp11,
    random_unit_quaternion,
)

import exact
from pins import outcome

HALF = Quaternion(0.5, 0.0, 0.0, 0.0)
T_SKEW = 4.0 / math.sqrt(34.0)  # |j/2 - i/2| / |1 - conj(i/2) j/2|
EPS = exact.EPS


def q(w=0.0, x=0.0, y=0.0, z=0.0):
    return Quaternion(float(w), float(x), float(y), float(z))


# -- normalizing map -----------------------------------------------------


def test_normalizing_map_on_real_segment_is_identity():
    L = normalizing_map(ZERO, HALF)
    assert L(ZERO) == ZERO
    assert L(HALF).close_to(HALF, tol=1e-15)
    g = to_canonical_disc(L)
    assert g.alpha.close_to(ONE) and g.beta.close_to(ONE) and g.q0.close_to(ZERO)


def test_normalizing_map_swapped_segment():
    L = normalizing_map(HALF, ZERO)
    assert L(HALF).close_to(ZERO, tol=1e-15)
    assert L(ZERO).close_to(HALF, tol=1e-12)


def test_normalizing_map_skew_pair():
    q1, q2 = I * 0.5, J * 0.5
    L = normalizing_map(q1, q2)
    assert L(q1).close_to(ZERO, tol=1e-15)
    image = L(q2)
    assert image.close_to(q(T_SKEW), tol=1e-12)  # lands on the positive axis


def test_normalizing_map_stays_in_ball():
    rng = make_rng(61)
    for _ in range(50):
        q1 = random_ball_point(rng)
        q2 = random_ball_point(rng)
        if abs(q1 - q2) < 0.05:
            continue
        L = normalizing_map(q1, q2)
        p = random_ball_point(rng, rmax=0.95)
        assert abs(L(p)) < 1.0


def test_normalizing_map_coincident_raises():
    with pytest.raises(CoincidentPoints):
        normalizing_map(HALF, HALF)


def test_normalizing_map_outside_ball_raises():
    with pytest.raises(OutOfDomain):
        normalizing_map(q(2), ZERO)


# -- geodesics of the ball ----------------------------------------------


def test_geodesic_diameter_cases():
    g = geodesic_disc(ZERO, HALF)
    assert g.kind == "Diameter"
    assert g.q3.close_to(ONE, tol=1e-9)
    assert g.q4.close_to(-ONE, tol=1e-9)

    g = geodesic_disc(ZERO, I * 0.5)
    assert g.kind == "Diameter"
    assert g.q3.close_to(I, tol=1e-9)
    assert g.q4.close_to(-I, tol=1e-9)


@pytest.mark.parametrize("s", [1e-12, 0.1])
def test_geodesic_kind_is_blind_to_scale(s):
    # an absolute t called any line through two points below 1e-5 a diameter
    assert geodesic_disc(q(s), q(0, s)).kind == "Circle"
    assert geodesic_disc(q(s), q(-2 * s)).kind == "Diameter"
    assert geodesic_disc(q(0, s), q(0, -0.5 * s)).kind == "Diameter"


def test_geodesic_circle_case():
    g = geodesic_disc(q(0.3), q(0, 0.3))
    assert g.kind == "Circle"
    assert abs(abs(g.q3) - 1.0) <= 1e-9
    assert abs(abs(g.q4) - 1.0) <= 1e-9
    assert is_concyclic(g.q1, g.q2, g.q3, g.q4, tol=1e-7)
    # the first end continues past q2, the second past q1
    assert abs(g.q3 - g.q2) < abs(g.q3 - g.q1)
    assert abs(g.q4 - g.q1) < abs(g.q4 - g.q2)


def test_geodesic_ends_recover_distance():
    rng = make_rng(62)
    for _ in range(100):
        q1 = random_ball_point(rng)
        q2 = random_ball_point(rng)
        if abs(q1 - q2) < 0.05:
            continue
        g = geodesic_disc(q1, q2)
        cr = cross_ratio(q1, q2, g.q3, g.q4)
        assert cr.im_norm() <= 1e-7 * (1.0 + abs(cr))
        assert cr.w > 1.0
        assert 0.5 * math.log(cr.w) == pytest.approx(distance_disc(q1, q2),
                                                     rel=1e-9, abs=1e-9)


def _dmul(p, q):
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _dconj(p):
    return (p[0], -p[1], -p[2], -p[3])


def _dabs(p):
    return sum(v * v for v in p).sqrt()


def _line_reference(q1, q2, ws):
    """L^-1(w) for the real w in ws, L the normalizing map of q1, q2, in
    50-digit decimal: L^-1(w) = phi(lam1^-1 w lam2^-1), phi(z) = (z + q1)(1 + conj(q1) z)^-1,
    lam1^-1 = d / |d| for d = q2 - q1 and lam2^-1 = conj(g) / |g| for
    g = 1 - conj(q1) q2."""
    with localcontext() as ctx:
        ctx.prec = 50
        p1, p2 = (tuple(Decimal(v) for v in p) for p in (q1, q2))
        one = (Decimal(1), Decimal(0), Decimal(0), Decimal(0))
        d = tuple(b - a for a, b in zip(p1, p2))
        g = tuple(a - b for a, b in zip(one, _dmul(_dconj(p1), p2)))
        scale = _dabs(d) * _dabs(g)
        z = tuple(v / scale for v in _dmul(d, _dconj(g)))
        points = []
        for w in ws:
            zs = tuple(w * v for v in z)
            num = tuple(a + b for a, b in zip(zs, p1))
            den = tuple(a + b for a, b in zip(one, _dmul(_dconj(p1), zs)))
            n2 = sum(v * v for v in den)
            points.append(_dmul(num, tuple(v / n2 for v in _dconj(den))))
        return points


def _ends_reference(q1, q2):
    """The ends L^-1(1), beyond q2, and L^-1(-1), beyond q1."""
    return _line_reference(q1, q2, (1, -1))


def _near_sphere(rng, direction):
    """direction scaled to 1 - delta, delta log-uniform in [1e-9, 1e-3]."""
    return direction * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0))


def _tangent(rng, n):
    """A random unit quaternion orthogonal to the unit n, as a 4-vector."""
    t = random_unit_quaternion(rng)
    return (t - n * (t.w * n.w + t.x * n.x + t.y * n.y + t.z * n.z)).unit()


def _end_errors(q1, q2, refs=None):
    """Component-wise distance of geodesic_disc's ends from the references
    (default: the 50-digit ends of q1, q2)."""
    g = geodesic_disc(q1, q2)
    with localcontext() as ctx:
        ctx.prec = 50
        return [max(abs(Decimal(a) - b) for a, b in zip(got, want))
                for got, want in zip((g.q3, g.q4), refs or _ends_reference(q1, q2))]


def test_geodesic_ends_near_the_sphere_match_the_normalizing_map():
    rng = make_rng(88)
    pairs = []
    for _ in range(60):
        u, v = random_unit_quaternion(rng), random_unit_quaternion(rng)
        pairs.append((_near_sphere(rng, u), random_ball_point(rng)))
        pairs.append((random_ball_point(rng), _near_sphere(rng, v)))
        pairs.append((_near_sphere(rng, u), _near_sphere(rng, v)))
        # nearly coincident at one depth: a step of 1e-8..1e-2 along the sphere
        p = _near_sphere(rng, u)
        step = _tangent(rng, u) * 10.0 ** rng.uniform(-8.0, -2.0)
        pairs.append((p, (u + step).unit() * abs(p)))
    worst = max(max(_end_errors(q1, q2)) for q1, q2 in pairs)
    assert worst <= 2e-15, worst


def test_geodesic_far_end_of_a_nearly_radial_line_is_backward_stable():
    # two points near the sphere on a nearly radial line: the end beyond the
    # deeper one lies across the ball and moves by up to about eps / delta^2
    # when the inputs move by eps, so the bound is that measured movement of
    # the 50-digit ends under relative input perturbations of eps
    rng = make_rng(89)
    eps = Decimal(2.0 ** -52)
    for _ in range(40):
        n = random_unit_quaternion(rng)
        tilt = _tangent(rng, n) * 10.0 ** rng.uniform(-12.0, -3.0)
        q1 = n * (1.0 - 10.0 ** rng.uniform(-9.0, -3.0))
        q2 = (n + tilt).unit() * (1.0 - 10.0 ** rng.uniform(-9.0, -1.0))
        refs = _ends_reference(q1, q2)
        moved = [Decimal(0), Decimal(0)]
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(4):
                shaken = [[Decimal(v) * (1 + eps * Decimal(rng.uniform(-1.0, 1.0)))
                           for v in p] for p in (q1, q2)]
                for k, (a, b) in enumerate(zip(_ends_reference(*shaken), refs)):
                    moved[k] = max(moved[k], max(abs(x - y) for x, y in zip(a, b)))
            for err, bound in zip(_end_errors(q1, q2, refs), moved):
                assert err <= Decimal(2e-15) + 2 * bound, (q1, q2, err, bound)


def test_geodesic_coincident_raises():
    with pytest.raises(CoincidentPoints):
        geodesic_disc(HALF, HALF)


def _operator_direction(x, y):
    """_direction in the Quaternion operators, the reference of its pin."""
    m = (y - x) * (ONE - x.conj() * y).inverse()
    return m * (1.0 / abs(m))


def _operator_end_beyond(x, y):
    u = _operator_direction(x, y)
    return (x - u) * (ONE - x.conj() * u).inverse()


def test_ball_ends_are_bit_identical_to_the_operator_forms():
    rng = make_rng(90)
    pairs = [(random_ball_point(rng), random_ball_point(rng)) for _ in range(300)]
    for _ in range(200):  # 1 - |q| log-uniform down to 1e-15
        u, v = random_unit_quaternion(rng), random_unit_quaternion(rng)
        pairs.append((u * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0)), random_ball_point(rng)))
        pairs.append((random_ball_point(rng) * 1e-300, v * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))))
        pairs.append((random_ball_point(rng) * 1e-300, random_ball_point(rng) * 1e-300))
    signed = [q(0.0, -0.0, 0.0, -0.0), q(-0.0, 0.5, -0.0, 0.0), q(0.25, -0.0, -0.0, -0.0),
              q(-0.0, -0.0, -0.0, 0.5), q(0.0, 0.0, -0.3, -0.0)]
    pairs += [(a, b) for a in signed for b in signed if a != b]
    # |1 - conj(x) y|^2 above N2_HUGE, below N2_TINY, and 0: the rescue branch
    rescue = [(q(1e70, 0, 0, 0), q(0, 1e70, 0, 0)), (q(-1e70, 2e70, 0, 0), q(3e70, 0, 1e70, 0)),
              (ONE, q(1, 1e-140, 0, 0)), (ONE, q(1, 0, 0, -1e-160)), (q(2), HALF)]
    for x, y in rescue:
        gap = ONE - x.conj() * y
        assert not N2_TINY <= gap.norm_sq() < N2_HUGE
    pairs += rescue + [(y, x) for x, y in rescue]
    for x, y in pairs:
        assert outcome(_direction, x, y) == outcome(_operator_direction, x, y), (x, y)
        assert outcome(_end_beyond, x, y) == outcome(_operator_end_beyond, x, y), (x, y)


def _ball_end_pairs():
    """The pairs of test_ball_ends_are_bit_identical_to_the_operator_forms, drawn
    again in the same order; that pin keeps its list as it was written."""
    rng = make_rng(90)
    pairs = [(random_ball_point(rng), random_ball_point(rng)) for _ in range(300)]
    for _ in range(200):  # 1 - |q| log-uniform down to 1e-15
        u, v = random_unit_quaternion(rng), random_unit_quaternion(rng)
        pairs.append((u * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0)), random_ball_point(rng)))
        pairs.append((random_ball_point(rng) * 1e-300, v * (1.0 - 10.0 ** rng.uniform(-15.0, -1.0))))
        pairs.append((random_ball_point(rng) * 1e-300, random_ball_point(rng) * 1e-300))
    signed = [q(0.0, -0.0, 0.0, -0.0), q(-0.0, 0.5, -0.0, 0.0), q(0.25, -0.0, -0.0, -0.0),
              q(-0.0, -0.0, -0.0, 0.5), q(0.0, 0.0, -0.3, -0.0)]
    pairs += [(a, b) for a in signed for b in signed if a != b]
    rescue = [(q(1e70, 0, 0, 0), q(0, 1e70, 0, 0)), (q(-1e70, 2e70, 0, 0), q(3e70, 0, 1e70, 0)),
              (ONE, q(1, 1e-140, 0, 0)), (ONE, q(1, 0, 0, -1e-160)), (q(2), HALF)]
    return pairs + rescue + [(y, x) for x, y in rescue]


def _operator_geodesic_disc(q1, q2, tol):
    """geodesic_disc's ends in the Quaternion operators, after its domain rule."""
    _require_distinct(q1, q2, tol)
    return _operator_end_beyond(q2, q1), _operator_end_beyond(q1, q2)


def test_geodesic_disc_is_bit_identical_to_the_operator_forms():
    rng = make_rng(91)
    pairs = _ball_end_pairs()
    for _ in range(100):  # diameters, and lines 1e-8 off one, which tol=1e-6 calls diameters
        x, t = random_ball_point(rng, 0.7), rng.uniform(-1.3, 1.3)
        pairs.append((x, x * t))
        pairs.append((x, x * t + random_imaginary_unit(rng) * x * 1e-8))
    for tol in (None, 1e-6):
        kinds = set()
        for x, y in pairs:
            want = outcome(_operator_geodesic_disc, x, y, tol)
            assert outcome(lambda *a: geodesic_disc(*a)[2:4], x, y, tol) == want, (x, y, tol)
            if not isinstance(want, type):
                diam = (x.conj() * y).im_norm() <= bound(abs(x) * abs(y), tol)
                kind = geodesic_disc(x, y, tol).kind
                assert kind == ("Diameter" if diam else "Circle"), (x, y, tol)
                kinds.add(kind)
        assert kinds == {"Diameter", "Circle"}


# -- distance in the ball ------------------------------------------------


def test_distance_disc_spot_values():
    assert distance_disc(ZERO, HALF) == pytest.approx(0.5 * math.log(3.0), abs=1e-15)
    assert distance_disc(HALF, HALF) == 0.0
    assert distance_disc(I * 0.5, J * 0.5) == pytest.approx(math.atanh(T_SKEW),
                                                            abs=1e-12)


def test_distance_disc_out_of_domain():
    with pytest.raises(OutOfDomain):
        distance_disc(q(2), ZERO)
    with pytest.raises(OutOfDomain):
        distance_disc(ZERO, ONE)


def test_distance_disc_near_the_sphere_matches_exact_references():
    # 1 - |q|^2 from the rounded |q| was off by eps / (1 - |q|) in each gap:
    # up to 5.2e-4 in the distance (about 30) here
    rng = make_rng(11)
    for _ in range(200):
        p1, p2 = exact.at_depth(rng, 1e-13), exact.at_depth(rng, 1e-13)
        assert exact.rel_err(distance_disc(p1, p2), exact.dist_ball(p1, p2)) <= 8 * EPS, (p1, p2)


def test_a_point_whose_exact_gap_is_not_positive_is_out_of_domain():
    p = q(*exact.OUTSIDE_BY_ROUNDING)
    assert p.norm_sq() < 1.0 and exact.one_minus_norm_sq(p) < 0
    # exact 1 - |r|^2 = -2.6e-18; integrated_length_disc took it as 1.3333
    r = q(-0.43930406023587076, 0.23672527008208005, -0.47737596818919237, -0.7232463440351952)
    assert exact.one_minus_norm_sq(r) < 0
    for f, args in ((distance_disc, (p, HALF)), (distance_disc, (HALF, p)),
                    (metric_disc, (p, ONE)), (geodesic_disc, (p, HALF)),
                    (integrated_length_disc, ([HALF, p],)),
                    (integrated_length_disc, ([ZERO, r],))):
        with pytest.raises(OutOfDomain):
            f(*args)
    assert cayley(p).w < 0.0  # its image lies beyond Re q = 0, as the exact one does


def test_distance_symmetry_and_identity():
    rng = make_rng(63)
    for _ in range(100):
        q1 = random_ball_point(rng)
        q2 = random_ball_point(rng)
        assert distance_disc(q1, q2) == pytest.approx(distance_disc(q2, q1),
                                                      abs=1e-12)
        assert distance_disc(q1, q1) == 0.0
        if abs(q1 - q2) > 1e-6:
            assert distance_disc(q1, q2) > 0.0


def test_distance_triangle_inequality():
    rng = make_rng(64)
    for _ in range(300):
        a, b, c = (random_ball_point(rng, rmax=0.95) for _ in range(3))
        assert distance_disc(a, b) <= distance_disc(a, c) + distance_disc(c, b) + 1e-9


def test_distance_slice_restriction_matches_plane_formula():
    # two points of one slice see the classical two dimensional value
    rng = make_rng(65)
    for _ in range(50):
        axis = random_imaginary_unit(rng)
        z1 = complex(*rng.uniform(-0.6, 0.6, size=2))
        z2 = complex(*rng.uniform(-0.6, 0.6, size=2))
        if abs(z1 - z2) < 1e-3:
            continue
        q1 = q(z1.real) + axis * z1.imag
        q2 = q(z2.real) + axis * z2.imag
        expected = math.atanh(abs(z1 - z2) / abs(1.0 - z1.conjugate() * z2))
        assert distance_disc(q1, q2) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_distance_invariance_under_ball_group_and_conjugation():
    rng = make_rng(66)
    for _ in range(100):
        A = random_sp11(rng)
        q1 = random_ball_point(rng)
        q2 = random_ball_point(rng)
        d = distance_disc(q1, q2)
        assert distance_disc(apply(A, q1), apply(A, q2)) == pytest.approx(
            d, rel=1e-9, abs=1e-9)
        assert distance_disc(q1.conj(), q2.conj()) == pytest.approx(d, abs=1e-12)


# -- metric densities ----------------------------------------------------


def test_metric_disc_spot_values():
    tau = I + J
    assert metric_disc(ZERO, tau) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert metric_disc(HALF, ONE) == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert metric_disc(I * 0.5, tau) == pytest.approx(math.sqrt(2.0) / 0.75, abs=1e-12)


def test_spots_suite_sees_a_drifted_metric_disc(monkeypatch):
    # a constant factor cancels in every invariance check; a spot value sees it
    from qmobius import selftest
    monkeypatch.setattr(selftest, "metric_disc",
                        lambda q, tau: metric_disc(q, tau) * (1.0 + 1e-6))
    report = selftest.spots_suite(make_rng(0), 1).report()
    assert not report["ok"] and report["check"] == "metric", report


def test_distance_suite_sees_a_nan_distance(monkeypatch):
    # max(worst, nan) is worst, so a running maximum would drop the NaN
    from qmobius import selftest
    calls = iter(range(1, 1_000_000))
    monkeypatch.setattr(selftest, "distance_disc", lambda p, q: (
        math.nan if next(calls) % 7 == 0 else distance_disc(p, q)))
    report = selftest.distance_suite(make_rng(107), 50).report()
    assert not report["ok"] and report["worst_err"] is None, report
    assert report["check"] in {"worst_distance", "worst_conjugation",
                               "worst_cross_ratio_route"}, report


def test_suite_keeps_each_statistic_worst_value_and_a_nan():
    from qmobius.selftest import Suite
    s = Suite(n_checked=1, rel=8.0, upper=0.625)
    s.check("floor", math.inf, ">", 0.1)
    s.check("slack", 0.0, ">=", -1.0)
    for v in (0.5, 0.25):
        s.worst("upper", v)
        s.worst("floor", v)
        s.worst("slack", -v)
    s.rel("rel", 3.0, -1.0)  # |3 - (-1)| / (1 + |-1|)
    s.rel("rel", -1.0, -1.0)
    report = s.report()
    assert report["stats"] == {"rel": 2.0, "upper": 0.5, "floor": 0.25, "slack": -0.5}
    assert list(report["stats"]) == ["rel", "upper", "floor", "slack"]
    assert report["ok"] and report["check"] == "upper" and report["margin"] == 0.8, report
    # a NaN is worse than any number and stays; under a negative floor its margin is null
    s.worst("slack", math.nan)
    s.worst("slack", -2.0)
    report = s.report()
    assert not report["ok"] and report["check"] == "slack", report
    assert report["worst_err"] is None and report["margin"] is None
    assert report["stats"]["slack"] is None
    assert list(report["stats"]) == ["rel", "upper", "floor", "slack"]


def test_metric_disc_near_the_sphere_matches_exact_references():
    rng = make_rng(11)
    for _ in range(200):
        p, tau = exact.at_depth(rng, 1e-13), random_quaternion(rng, 3.0)
        assert exact.rel_err(metric_disc(p, tau), exact.metric_disc(p, tau)) <= 4 * EPS, p


def test_metric_halfspace_spot_values():
    assert metric_halfspace(ONE, ONE) == 0.5
    assert metric_halfspace(ONE, J * 2) == 1.0
    assert metric_halfspace(HALF, ONE) == 1.0


def test_metric_halfspace_matches_exact_references():
    # 2 Re q overflowed past Re q = 8.99e307, which gave 0.0 here
    assert metric_halfspace(q(1e308), ONE) == pytest.approx(5e-309, rel=1e-14, abs=0.0)
    rng = make_rng(12)
    checked = 0
    top = math.log10(1.79e308)
    for lo in [-300.0] * 1000 + [math.log10(8.99e307)] * 200:  # and where 2 Re q overflows
        p = q(10.0 ** rng.uniform(lo, top), *random_imaginary(rng)[1:])
        tau = random_quaternion(rng) * 10.0 ** rng.uniform(-300.0, 300.0)
        try:
            m = metric_halfspace(p, tau)
        except NonFiniteResult:  # it returned inf here: the length does not fit a float
            assert exact.metric_half(p, tau) > Decimal(sys.float_info.max) * Decimal(1 - 4 * EPS)
            continue
        if 2.0 ** -1022 <= m:
            assert exact.rel_err(m, exact.metric_half(p, tau)) <= 2 * EPS, (p, tau)
            checked += 1
    assert checked > 600


def test_metric_domain_errors():
    with pytest.raises(OutOfDomain):
        metric_disc(q(1.5), ONE)
    with pytest.raises(OutOfDomain):
        metric_halfspace(I, ONE)  # boundary point, Re = 0


def test_metric_invariance_finite_difference():
    rng = make_rng(67)
    h = 1e-6
    for _ in range(50):
        A = random_sp11(rng)
        p = random_ball_point(rng, rmax=0.7)
        tau = random_quaternion(rng)
        if abs(tau) < 0.1:
            continue
        dg = (apply(A, p + tau * h) - apply(A, p - tau * h)) / (2.0 * h)
        lhs = metric_disc(apply(A, p), dg)
        rhs = metric_disc(p, tau)
        assert abs(lhs - rhs) <= 1e-5 * (1.0 + rhs)


def test_metric_integrates_to_distance_along_radius():
    # independent route: Gauss-Legendre quadrature of the density along
    # the straight segment from 0 to 0.5
    nodes, weights = np.polynomial.legendre.leggauss(40)
    t = 0.25 * (nodes + 1.0)  # map [-1, 1] to [0, 0.5]
    vals = 1.0 / (1.0 - t * t)
    integral = 0.25 * float(np.dot(weights, vals))
    assert integral == pytest.approx(distance_disc(ZERO, HALF), abs=1e-12)


# -- sampling and integrated length -------------------------------------


def _quats(rows):
    return [Quaternion(*map(float, row)) for row in rows]


def test_geodesic_sample_spot_values():
    assert _quats(geodesic_sample_rows(ZERO, HALF, 2)) == [ZERO, HALF]
    pts = _quats(geodesic_sample_rows(ZERO, HALF, 3))
    assert pts[1].close_to(q(2.0 - math.sqrt(3.0)), tol=1e-12)


def test_geodesic_sample_equipartitions():
    rows = geodesic_sample_rows(I * 0.5, J * 0.5, 5)
    assert rows.shape == (5, 4)
    pts = _quats(rows)
    assert pts[0] == I * 0.5 and pts[-1] == J * 0.5
    total = distance_disc(I * 0.5, J * 0.5)
    for a, b in zip(pts, pts[1:]):
        assert distance_disc(a, b) == pytest.approx(total / 4.0, rel=1e-9, abs=1e-12)


def test_geodesic_sample_rows_pinned_to_scalar_apply():
    # the first half is the image of tanh(s) under q1's normalizing map, the
    # second that of tanh(D - s) under q2's, with D - s read off in reverse
    rng = make_rng(75)
    for _ in range(5):
        q1, q2 = random_ball_point(rng), random_ball_point(rng)
        for n in (200, 201):
            rows = geodesic_sample_rows(q1, q2, n)
            radii = np.tanh(np.linspace(0.0, 1.0, n) * distance_disc(q1, q2))
            h = (n + 1) // 2
            halves = ((normalizing_map(q1, q2), range(1, h), radii),
                      (normalizing_map(q2, q1), range(h, n - 1), radii[::-1]))
            for L, ks, r in halves:
                Linv = L.inverse()
                for k in ks:
                    p = apply(Linv, q(r[k]))
                    assert np.abs(rows[k] - np.array(p)).max() <= 1e-15
            assert tuple(rows[0]) == q1 and tuple(rows[-1]) == q2


def test_apply_matrix_to_reals_bit_identical_to_its_expression_form():
    # the numpy expressions that the in-place planes replaced, every bit
    # compared, signed zeros included; real and zero entries among the rows
    rng = make_rng(76)
    r = np.concatenate([[0.0, -0.0, 1.0], np.tanh(np.linspace(0.0, 3.0, 50))])
    for M in [Mat2H(*(random_quaternion(rng, 2.0) for _ in range(4))) for _ in range(4)] + [
            Mat2H(ONE, ZERO, q(0.0, -0.0, 0.0, -0.0), q(2.0)), Mat2H(I, HALF, ZERO, ONE)]:
        a, b, c, d = M
        num = [r * a[k] + b[k] for k in range(4)]
        dw, dx, dy, dz = den = [r * c[k] + d[k] for k in range(4)]
        n2 = dw * dw + dx * dx + dy * dy + dz * dz
        want = np.array(qmul_planes(num, (dw / n2, -dx / n2, -dy / n2, -dz / n2)))
        got = _apply_matrix_to_reals(M, r)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_geodesic_sample_rows_near_the_sphere_are_equally_spaced():
    # the segment's parameter t = tanh(D) rounds to 1 here, and atanh(t)
    # fell short of D as it neared 1
    q1, q2 = q(0.999), q(0, 1.0 - 1e-14)
    D = distance_disc(q1, q2)
    rows = geodesic_sample_rows(q1, q2, 3)
    assert np.isfinite(rows).all() and ((rows * rows).sum(axis=1) < 1.0).all()
    mid = Quaternion(*map(float, rows[1]))
    assert abs(distance_disc(q1, mid) - D / 2.0) <= 1e-9 * (1.0 + D)


def _asinh(t):
    return (t + (t * t + 1).sqrt()).ln()


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13])
def test_geodesic_sample_rows_near_the_sphere_match_exact_references(delta):
    # the reference puts sample k at L^-1(tanh(k D / (n - 1))), all from q1, in
    # 50 digits.  Moving an end q by eps moves a sample p by at most
    # eps (1 - |p|^2) / (1 - |q|^2), and rounding r = tanh s' moves it by
    # eps (1 - |p|^2) cosh^2 s', s' its distance from the end it is taken from.
    # Taken from q1 alone, the far half ran over its bound by up to 3e9 here.
    rng = make_rng(94)
    eps = Decimal(2.0 ** -52)
    for j in range(30):
        q1 = random_unit_quaternion(rng) * (1.0 - delta)
        q2 = (random_unit_quaternion(rng) * (1.0 - delta) if j % 2
              else random_ball_point(rng))
        for n in (8, 9):
            rows = geodesic_sample_rows(q1, q2, n)
            assert ((rows * rows).sum(axis=1) < 1.0).all()
            with localcontext() as ctx:
                ctx.prec = 50
                p1, p2 = (tuple(Decimal(v) for v in p) for p in (q1, q2))
                gaps = [1 - sum(v * v for v in p) for p in (p1, p2)]
                D = _asinh(_dabs([b - a for a, b in zip(p1, p2)]) / (gaps[0] * gaps[1]).sqrt())
                s = [D * k / (n - 1) for k in range(n)]
                ws = [(1 - (-2 * t).exp()) / (1 + (-2 * t).exp()) for t in s]
            for k, want in enumerate(_line_reference(q1, q2, ws)):
                with localcontext() as ctx:
                    ctx.prec = 50
                    near = min(s[k], D - s[k])
                    cosh2 = ((near.exp() + (-near).exp()) / 2) ** 2
                    depth = 1 - sum(v * v for v in want)
                    bound = eps * (1 + depth * (1 / gaps[0] + 1 / gaps[1] + cosh2))
                    err = max(abs(Decimal(a) - b) for a, b in zip(rows[k], want))
                assert err <= bound, (q1, q2, n, k, err / bound)


def test_geodesic_sample_too_few():
    with pytest.raises(TooFewSamples):
        geodesic_sample_rows(ZERO, HALF, 1)
    with pytest.raises(TooFewSamples):
        geodesic_sample_rows(ZERO, HALF, 0)


def test_integrated_length_straight_segment():
    path = [q(t) for t in np.linspace(0.0, 0.5, 10_000)]
    assert integrated_length_disc(path) == pytest.approx(0.5 * math.log(3.0),
                                                         abs=1e-6)


def test_integrated_length_accepts_array():
    arr = geodesic_sample_rows(ZERO, HALF, 500)
    assert integrated_length_disc(arr) == pytest.approx(0.5 * math.log(3.0),
                                                        abs=1e-5)


def test_integrated_length_constant_path_is_zero():
    assert integrated_length_disc([HALF, HALF, HALF]) == 0.0


def test_integrated_length_detour_is_longer():
    leg1 = [q(0, 0.5 * t) for t in np.linspace(0.0, 1.0, 2000)]
    leg2 = [q(0.5 * t, 0.5 * (1.0 - t)) for t in np.linspace(0.0, 1.0, 2000)]
    detour = integrated_length_disc(leg1 + leg2)
    assert detour > distance_disc(ZERO, HALF) + 0.1


def test_integrated_length_matches_distance_on_geodesics():
    rng = make_rng(68)
    for _ in range(20):
        q1 = random_ball_point(rng, rmax=0.85)
        q2 = random_ball_point(rng, rmax=0.85)
        if abs(q1 - q2) < 0.05:
            continue
        d = distance_disc(q1, q2)
        approx = integrated_length_disc(_quats(geodesic_sample_rows(q1, q2, 4000)))
        assert abs(approx - d) <= 1e-5 * (1.0 + d)


@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10])
def test_integrated_length_near_the_sphere_matches_exact_distances(delta):
    """Within h^2 / 3 of exact.dist_ball, h = D / (n - 1) the samples' step.

    With q(s) at hyperbolic arclength s and u = h / 2, a segment's chord is
    2u |q'| (1 + u^2 <q', q'''> / (6 |q'|^2)) and its midpoint q + u^2 q'' / 2.
    |q'| = 1 - |q|^2 and the geodesic equation of this conformal metric,
    q'' = -4 <q, q'> q' / (1 - |q|^2) + 2 (1 - |q|^2) q, turn the chord over
    1 - |midpoint|^2 into h (1 - u^2 (2 r^2 c^2 - r^2 + 1/3) + O(h^4)), with
    r = |q| and c the cosine between q and q'.  As c^2 <= 1 and r < 1, the
    factor is below 4/3 in size, so each segment, and so the sum, is within
    4 u^2 / 3 = h^2 / 3 = 8 h^2 / 24 relative.  Measured here: 5.3 to 7.5
    h^2 / 24, as these geodesics run near the sphere (r -> 1) and mostly
    along q (c^2 -> 1)."""
    rng = make_rng(11)
    for _ in range(6):
        p, r = exact.at_depth(rng, delta), exact.at_depth(rng, delta)
        d = exact.dist_ball(p, r)
        h = float(d) / 9_999
        length = integrated_length_disc(geodesic_sample_rows(p, r, 10_000))
        assert exact.rel_err(length, d) <= h * h / 3.0, (p, r)


def test_integrated_length_errors():
    with pytest.raises(TooFewSamples):
        integrated_length_disc([HALF])
    with pytest.raises(OutOfDomain):
        integrated_length_disc([ZERO, q(1.2)])


# -- boundary map and half-space ----------------------------------------


def test_cayley_spot_values():
    assert cayley(ZERO) == ONE
    assert cayley(I * 0.5).close_to(q(0.6, 0.8), tol=1e-15)
    assert is_infinity(cayley(ONE))
    assert cayley_inv(ONE).close_to(ZERO, tol=1e-15)
    assert cayley_inv(q(0.6, 0.8)).close_to(I * 0.5, tol=1e-12)
    assert cayley_inv(INFINITY) == ONE


def test_cayley_inv_is_bit_identical_to_the_unhalved_matrix():
    # CAYLEY_INV is half of this matrix; halving every entry is exact
    reference = Mat2H(ONE, Quaternion(-1.0, 0.0, 0.0, 0.0), ONE, ONE)
    rng = make_rng(70)
    points = [INFINITY, ZERO, ONE, -ONE, I, -ZERO]
    points += [random_quaternion(rng, 1.0) * 10.0 ** float(rng.uniform(-300.0, 300.0))
               for _ in range(2000)]
    for p in points:
        assert outcome(cayley_inv, p) == outcome(apply, reference, p)


@pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-10, 1e-13])
def test_cayley_near_the_sphere_matches_exact_values(delta):
    # through apply, the real part cancelled: 2e-3 off at 1 - |q| = 1e-13
    rng = make_rng(11)
    for _ in range(200):
        p = exact.at_depth(rng, delta)
        for got, want in zip(cayley(p), exact.cayley(p)):
            assert exact.rel_err(got, want) <= 4 * EPS, (p, got, want)


def test_cayley_decides_poles_as_apply_does_and_defers_to_it_out_of_range():
    # shells of radius 1e-13 .. 1e-10 around the pole 1 straddle apply's
    # relative test |1 - q| <= 1e-12 (|q| + 1); at 1e150, |1 - q|^2 passes
    # N2_HUGE and cayley is apply(CAYLEY, q) itself
    rng = make_rng(72)
    shells = [ONE + random_unit_quaternion(rng) * 10.0 ** rng.uniform(-13.0, -10.0)
              for _ in range(400)]
    tiny = [random_quaternion(rng) * 1e-150 for _ in range(100)]
    huge = [random_quaternion(rng) * 1e150 for _ in range(100)]
    poles = 0
    for p in [INFINITY, ONE, *shells, *tiny, *huge]:
        got, want = outcome(cayley, p), outcome(apply, CAYLEY, p)
        if want is INFINITY or p is INFINITY or abs(p) > 1e100:
            poles += want is INFINITY
            assert got == want, p
        else:
            image = apply(CAYLEY, p)
            assert got is not INFINITY and abs(cayley(p) - image) <= 8 * EPS * abs(image), p
    assert 50 < poles < 350


def test_cayley_maps_ball_to_halfspace():
    rng = make_rng(69)
    for _ in range(100):
        p = random_ball_point(rng, rmax=0.95)
        image = cayley(p)
        assert image.w > 0.0
        assert cayley_inv(image).close_to(p, tol=1e-9)
        u = random_imaginary_unit(rng)
        boundary = cayley(u)  # unit sphere lands on Re = 0
        if not is_infinity(boundary):
            assert abs(boundary.w) <= 1e-9 * (1.0 + abs(boundary))


def test_distance_halfspace_spot_values():
    assert distance_halfspace(ONE, ONE) == 0.0
    assert distance_halfspace(ONE, q(3)) == pytest.approx(0.5 * math.log(3.0),
                                                          abs=1e-12)
    assert distance_halfspace(q(2), q(8)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_distance_halfspace_cross_ratio_route_agrees():
    rng = make_rng(70)
    pairs = [(ONE, ONE + I)] + [
        (random_halfspace_point(rng), random_halfspace_point(rng))
        for _ in range(25)]
    for q1, q2 in pairs:
        if abs(q1 - q2) < 0.05:
            continue
        # the defining route: half the log of the real cross-ratio of q1, q2
        # against the ends of their geodesic
        geo = geodesic_halfspace(q1, q2)
        route = 0.5 * math.log(cross_ratio(q1, q2, geo.e3, geo.e4).w)
        d = distance_halfspace(q1, q2)
        assert abs(route - d) <= 1e-9 * (1.0 + d)


def test_distance_disc_near_boundary_is_exact():
    a = 0.999999999999
    d = distance_disc(q(a), q(-a))
    assert d == pytest.approx(math.log((1.0 + a) / (1.0 - a)), rel=1e-12)


def test_distance_halfspace_near_boundary_is_exact():
    d = distance_halfspace(q(1e-13), q(1e-12))
    assert d == pytest.approx(0.5 * math.log(10.0), rel=1e-12)


def _operator_distance_halfspace(q1, q2):
    """distance_halfspace with the Quaternion operators, as it was before the
    subnormal rescale: the reference of the bit-identity pin."""
    if q1.w <= 0.0 or q2.w <= 0.0:
        raise OutOfDomain("not in the half-space")
    s = math.sqrt(q1.w) * math.sqrt(q2.w)
    gap = abs(q1 - q2)
    x = gap / s * 0.5 if gap < math.inf else abs(q1 * 0.5 - q2 * 0.5) / s
    if x == math.inf:
        return (math.log(2.0) + math.log(abs(q1 * 0.5 - q2 * 0.5))
                - 0.5 * (math.log(q1.w) + math.log(q2.w)))
    return math.asinh(x)


def test_distance_halfspace_is_bit_identical_to_the_operator_form():
    rng = make_rng(73)
    pairs = [(q(1, 1e308), q(1, -1e308)), (q(8e307, 1e308), q(8e307, -1e308)),
             (q(1e308), q(1e308, 1e300)), (q(1e-300), q(1e-300, 1e200)),
             (q(1.5e-323), q(1.5e-323, 5e-324)), (q(0), ONE), (ONE, q(-1, 2))]
    for _ in range(3000):
        def point():
            h = random_halfspace_point(rng)
            r, m = 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-300.0, 300.0)
            return q(h.w * r, h.x * m, h.y * m, h.z * m)
        pairs.append((point(), point()))
    # the rescaled branch: a subnormal root product, or a subnormal gap (pinned
    # to exact references below, since the operator form rounds that gap)
    kept = [(a, b) for a, b in pairs
            if not (a.w > 0.0 and b.w > 0.0 and (math.sqrt(a.w) * math.sqrt(b.w) < 2.0 ** -1022
                                                 or abs(a - b) < 2.0 ** -1022))]
    assert len(kept) > 0.9 * len(pairs)
    for a, b in kept:
        assert outcome(distance_halfspace, a, b) == outcome(_operator_distance_halfspace, a, b)


def test_distance_halfspace_with_a_subnormal_gap_matches_exact_references():
    # the gap rounded to the 2^-1074 grid was 3.8e-9 relative off here
    a, b = q(1e-300), q(1e-300, 3e-316, 4e-316, 1e-317)
    assert exact.rel_err(distance_halfspace(a, b), exact.dist_half(a, b)) <= 4 * EPS
    rng = make_rng(75)
    checked = 0
    for _ in range(300):
        a = q(10.0 ** rng.uniform(-310.0, -280.0),
              *(random_imaginary(rng) * 10.0 ** rng.uniform(-310.0, -280.0))[1:])
        b = q(*(u + v for u, v in zip(a, random_quaternion(rng) * 10.0 ** rng.uniform(-323.0, -308.0))))
        want = exact.dist_half(a, b) if b.w > 0.0 else 0
        if abs(a - b) < 2.0 ** -1022 and want >= 2.0 ** -1022:  # a normal result
            assert exact.rel_err(distance_halfspace(a, b), want) <= 4 * EPS, (a, b)
            checked += 1
    assert checked > 100


def test_distance_halfspace_where_the_root_product_is_subnormal():
    # sqrt(Re q1) sqrt(Re q2) = 3.7e-314 was subnormal: 2.8e-11 off before
    a, b = q(5e-324), q(2.70092e-304)
    assert exact.rel_err(distance_halfspace(a, b), exact.dist_half(a, b)) <= 4 * EPS
    rng = make_rng(74)
    for _ in range(100):
        re1, re2 = 10.0 ** rng.uniform(-323.5, -300.0), 10.0 ** rng.uniform(-320.0, -300.0)
        a = q(re1, *(random_imaginary(rng) * 10.0 ** rng.uniform(-320.0, -290.0))[1:])
        b = q(re2, *(random_imaginary(rng) * 10.0 ** rng.uniform(-320.0, -290.0))[1:])
        if math.sqrt(a.w) * math.sqrt(b.w) < 2.0 ** -1022:
            assert exact.rel_err(distance_halfspace(a, b), exact.dist_half(a, b)) <= 4 * EPS, (a, b)
    # every sample of this line is taken from its nearer end, so each spacing
    # is D / 32 to within about eps per unit of distance
    pts = geodesic_sample_halfspace(q(5e-324), q(1e308, 1e308), 33)
    D = distance_halfspace(pts[0], pts[-1])
    for a, b in zip(pts, pts[1:]):
        assert abs(distance_halfspace(a, b) - D / 32) <= 2e-15 * D, (a, b)
        assert exact.rel_err(distance_halfspace(a, b), exact.dist_half(a, b)) <= 4 * EPS, (a, b)


def test_distance_halfspace_domain():
    with pytest.raises(OutOfDomain):
        distance_halfspace(I, ONE)
    with pytest.raises(OutOfDomain):
        distance_halfspace(q(-1), ONE)


def test_geodesic_halfspace_spot_values():
    g = geodesic_halfspace(ONE, q(3))
    assert g.kind == "HalfLine"
    ends = {("inf" if is_infinity(e) else e) for e in (g.e3, g.e4)}
    assert "inf" in ends
    finite = next(e for e in (g.e3, g.e4) if not is_infinity(e))
    assert finite.close_to(ZERO, tol=1e-9)

    g = geodesic_halfspace(q(2), q(8))
    assert is_infinity(g.e3)  # the far end continues past 8
    assert g.e4.close_to(ZERO, tol=1e-9)

    g = geodesic_halfspace(ONE, ONE + I)
    assert g.kind == "Arc"
    for e in (g.e3, g.e4):
        assert not is_infinity(e)
        assert abs(e.w) <= 1e-9 * (1.0 + abs(e))


def test_geodesic_halfspace_ends_near_the_boundary_stay_on_it():
    g = geodesic_halfspace(q(1e-7, 1.0), q(1e-7, 0.0, 2.0, 0.5))
    for e in (g.e3, g.e4):
        assert not is_infinity(e)
        assert e.w == 0.0, e


EPS = 2.0 ** -52


def _semicircle_reference(q1, q2):
    """x1, v1, e, y0, R of the line through q1, q2, in 60-digit decimal from
    its own derivation: the center v1 + y0 e is as far from q1 as from q2."""
    x1, x2 = Decimal(q1.w), Decimal(q2.w)
    v1 = [Decimal(t) for t in q1[1:]]
    d = [Decimal(b) - a for a, b in zip(v1, q2[1:])]
    L = sum(t * t for t in d).sqrt()
    y0 = (L * L + x2 * x2 - x1 * x1) / (2 * L)
    return x1, v1, [t / L for t in d], y0, (x1 * x1 + y0 * y0).sqrt()


def _halfspace_pairs(rng, re, scale, n=60):
    """n pairs with Re q = re * U(1/2, 2) and Im q in [-1, 1]^3, all times
    scale; every other q1 is real, so that the end near it is tiny."""
    def point(im=1.0):
        return q(re * rng.uniform(0.5, 2.0), *rng.uniform(-im, im, size=3)) * scale
    return [(point(k % 2), point()) for k in range(n)]


_RE_SCALES = [(1e-1, 1.0), (1e-4, 1.0), (1e-8, 1.0), (1e-12, 1.0),
              (1.0, 1e150), (1.0, 1e-150), (1e-12, 1e150), (1e-12, 1e-150)]


@pytest.mark.parametrize("re, scale", _RE_SCALES)
def test_geodesic_halfspace_ends_match_exact_references(re, scale):
    # each end v1 + s e within a few eps of |v1| + |end|: the cancelling
    # offset, -x1^2 over the other, keeps its relative digits
    rng = make_rng(91)
    with localcontext() as ctx:
        ctx.prec = 60
        for q1, q2 in _halfspace_pairs(rng, re, scale):
            g = geodesic_halfspace(q1, q2)
            assert g.kind == "Arc"
            _, v1, e, y0, R = _semicircle_reference(q1, q2)
            for got, s in ((g.e3, y0 + R), (g.e4, y0 - R)):
                assert got.w == 0.0
                want = [a + s * b for a, b in zip(v1, e)]
                size = max(map(abs, v1)) + max(map(abs, want))
                err = max(abs(Decimal(a) - b) for a, b in zip(got[1:], want))
                assert err <= 4 * Decimal(EPS) * size, (q1, q2, err / size)


@pytest.mark.parametrize("re, scale", _RE_SCALES)
def test_geodesic_sample_halfspace_matches_exact_references(re, scale):
    # the reference walks tan(phi/2) = t1 e^(-2s) from q1, t1 = x1 / (R - y0);
    # Re keeps its relative digits down to the boundary and Im its digits
    # relative to |v1| + |sample|, each to a few eps per unit of distance,
    # the error of the log-parameter the samples are spaced in
    rng = make_rng(92)
    n = 9
    with localcontext() as ctx:
        ctx.prec = 60
        for q1, q2 in _halfspace_pairs(rng, re, scale, n=30):
            pts = geodesic_sample_halfspace(q1, q2, n)
            assert pts[0] == q1 and pts[-1] == q2 and len(pts) == n
            x1, v1, e, y0, R = _semicircle_reference(q1, q2)
            gap = sum((Decimal(a) - Decimal(b)) ** 2 for a, b in zip(q1, q2)).sqrt()
            delta = _asinh(gap / (2 * (x1 * Decimal(q2.w)).sqrt()))
            t1 = x1 / (R - y0)
            for k, p in enumerate(pts[1:-1], start=1):
                t = t1 * (-2 * k * delta / (n - 1)).exp()
                re_want = 2 * R * t / (1 + t * t)
                off = y0 + R * (1 - t * t) / (1 + t * t)
                im_want = [a + off * b for a, b in zip(v1, e)]
                assert p.w > 0.0
                assert abs(Decimal(p.w) - re_want) <= 4 * Decimal(EPS) * (1 + delta) * re_want
                size = max(map(abs, v1)) + max(re_want, *map(abs, im_want))
                err = max(abs(Decimal(a) - b) for a, b in zip(p[1:], im_want))
                assert err <= 4 * Decimal(EPS) * (1 + delta) * size, (q1, q2, k)


def test_geodesic_sample_halfspace_is_equally_spaced():
    rng = make_rng(93)
    for q1, q2 in _halfspace_pairs(rng, 1.0, 1.0, n=40):
        pts = geodesic_sample_halfspace(q1, q2, 7)
        total = distance_halfspace(q1, q2)
        for a, b in zip(pts, pts[1:]):
            assert distance_halfspace(a, b) == pytest.approx(total / 6.0, rel=1e-12)


@pytest.mark.parametrize("lo, hi", [(q(1, 0.5, -2, 0), q(4, 0.5, -2, 0)),
                                    (q(1e-300, 0, 0, 1e-300), q(1e300, 0, 0, 1e-300))])
def test_halfline_orientation_and_samples(lo, hi):
    foot = q(0, *lo[1:])
    up, down = geodesic_halfspace(lo, hi), geodesic_halfspace(hi, lo)
    assert (up.kind, down.kind) == ("HalfLine", "HalfLine")
    assert up.e3 is INFINITY and up.e4 == foot
    assert down.e3 == foot and down.e4 is INFINITY
    # Re q = Re q1 e^(+-2s): the geometric mean sits halfway, either way
    for a, b in ((lo, hi), (hi, lo)):
        mid = geodesic_sample_halfspace(a, b, 3)[1]
        assert mid[1:] == lo[1:]
        assert mid.w == pytest.approx(math.sqrt(lo.w) * math.sqrt(hi.w), rel=1e-13)


def test_geodesic_halfspace_overflowing_and_huge_ends():
    # the center offset y0 = 3 / 1e-310 overflows: the end beyond q2 is INFINITY
    g = geodesic_halfspace(ONE, q(2, 1e-310))
    assert (g.kind, g.e3, g.e4) == ("HalfLine", INFINITY, ZERO)
    # a near-vertical pair is an arc with a huge finite end, s3 = 3e300
    g = geodesic_halfspace(ONE, q(2, 1e-300))
    assert g.kind == "Arc"
    assert g.e3.w == 0.0 and g.e3.x == pytest.approx(3e300, rel=1e-15)
    assert g.e4.x == pytest.approx(-1.0 / 3e300, rel=1e-15)
    # the end beyond q2, s3 = y0 + R = 1.84e308, does not fit a float; the
    # other, s4 = -x1^2 / s3, is taken at half scale
    g = geodesic_halfspace(q(1e308), q(1e308, 1.3e308))
    assert (g.kind, g.e3) == ("Arc", INFINITY)
    y0 = 0.65e308
    R = math.hypot(1e308, y0)
    assert g.e4.w == 0.0 and g.e4.x == pytest.approx(y0 - R, rel=1e-14)
    # nor does the gap between the imaginary parts
    with pytest.raises(NonFiniteResult):
        geodesic_halfspace(q(1, 1e308), q(1, -1e308))


def _operator_halfspace_ends(q1, q2, tol):
    """geodesic_halfspace's ends as _arc_point gives them at sigma = -inf, +inf."""
    arc = _arc(q1, q2, tol)
    if arc is None:
        foot = Quaternion(0.0, q1.x, q1.y, q1.z)
        return (INFINITY, foot) if q2.w > q1.w else (foot, INFINITY)
    return _arc_point(q1, arc, -math.inf), _arc_point(q1, arc, math.inf)


def test_geodesic_halfspace_ends_are_bit_identical_to_arc_point():
    rng = make_rng(92)
    pairs = [(random_halfspace_point(rng), random_halfspace_point(rng)) for _ in range(300)]
    for _ in range(200):  # Re down to 1e-300, at unit and at tiny imaginary scale
        p, r = random_halfspace_point(rng), random_halfspace_point(rng)
        x1, x2 = 10.0 ** rng.uniform(-300.0, 0.0), 10.0 ** rng.uniform(-300.0, 0.0)
        pairs.append((q(x1, *p[1:]), q(x2, *r[1:])))
        pairs.append((q(x1, *(v * x1 for v in p[1:])), q(x2, *(v * x1 for v in r[1:]))))
        pairs.append((p, q(r.w, *p[1:])))  # a half-line
    # near 1e308, with a far end or R = hypot(x1, y0) past float range
    for _ in range(100):
        x1 = 10.0 ** rng.uniform(306.0, 308.2)
        x2 = x1 * rng.uniform(0.5, 1.5)
        step = random_imaginary_unit(rng) * (abs(x2 - x1) * 10.0 ** rng.uniform(-1.0, 1.0))
        pairs.append((q(x1), q(x2) + step))
    overflow, huge_r = (q(1e308), q(1e308, 1.3e308)), (q(1.5e308), q(1.6e308, 1.3e307))
    # s4 = -(x1 / s3) x1 is -0.0: _arc_point's + R g^2 / c turns it to 0.0
    signed = (q(1e-300, -0.0, -0.0, -0.0), q(1e-300, 1e10, -0.0, -0.0))
    pairs += [overflow, huge_r, signed, (q(1), q(2, 1e-310)), (ONE, q(3, 0.5, -0.0, 2.0))]
    assert _arc(*huge_r, None)[2] == math.inf
    assert math.copysign(1.0, _arc(*signed, None)[4]) == -1.0
    seen = set()
    for q1, q2 in pairs + [(y, x) for x, y in pairs]:
        for tol in (None, 1e-6):
            want = outcome(_operator_halfspace_ends, q1, q2, tol)
            assert outcome(lambda *a: geodesic_halfspace(*a)[2:4], q1, q2, tol) == want
            if not isinstance(want, type):
                arc = _arc(q1, q2, tol) is not None
                assert geodesic_halfspace(q1, q2, tol).kind == ("Arc" if arc else "HalfLine")
                seen.add((arc, INFINITY in want))
    assert seen == {(True, False), (True, True), (False, True)}


@pytest.mark.parametrize("q1, q2", [
    (q(1e-300), q(1e300)), (q(1e300), q(1e-300)), (q(1e-300), q(1e300, 1)),
    # sinh sigma1 = y0 / x1 = 5e309 overflows
    (q(1e-300), q(1e-300, 1e10)),
    # |q2| overflows, and the end beyond q2 does not fit a float
    (q(1.5e308), q(1.5e308, 1e308)),
    # y0 = 1e308, though L + (x2 - x1)(x2 + x1) / L overflows
    (q(5e-324), q(1e308, 1e308)),
])
def test_halfspace_samples_that_fit_a_float_are_returned(q1, q2):
    # q1's walk overflowed or underflowed at the far end of these lines: each
    # sample now comes from its nearer end.  Equal steps that add up to the
    # distance put the samples on the line, in order.
    n = 5
    pts = geodesic_sample_halfspace(q1, q2, n)
    assert pts[0] == q1 and pts[-1] == q2 and len(pts) == n
    assert all(0.0 < p.w < math.inf and all(map(math.isfinite, p)) for p in pts)
    D = distance_halfspace(q1, q2)
    for a, b in zip(pts, pts[1:]):
        assert distance_halfspace(a, b) == pytest.approx(D / (n - 1), rel=1e-12)


def test_geodesic_halfspace_coincidence_is_judged_on_the_points():
    p = q(1e-160, 1e-160)
    with pytest.raises(CoincidentPoints):
        geodesic_halfspace(p, p * (1.0 + 1e-12))
    g = geodesic_halfspace(p, p * (1.0 + 1e-12), tol=1e-13)
    assert g.kind == "Arc"
    with pytest.raises(CoincidentPoints):
        geodesic_sample_halfspace(p, p * (1.0 + 1e-12), 3)


def _coincide(f, *points):
    """Whether f judged two of the points to coincide; any later error
    (Singular, say, of a map through nearly coincident points) is a no."""
    try:
        f(*points)
    except CoincidentPoints:
        return True
    except GeometryError:
        pass
    return False


def test_halving_every_input_changes_no_coincidence_decision():
    # the rule is free of dilation, and halving is exact at these scales, so
    # no caller's decision may change; |q2| = 1.8e308 overflowed, which made
    # the huge pair below coincide at full scale and not at half scale
    rng = make_rng(96)
    huge = [q(1.5e308), q(1.5e308, 1e308), q(0, 0, 1.7e308), q(-1e308, 1e308, 1e308, 1e308)]
    cases = [(cross_ratio, huge), (three_point_map, huge[:3]), (geodesic_halfspace, huge[:2])]
    for scale in (1e-280, 1e-5, 1.0, 1e150, 1e300):
        for _ in range(40):
            def near(p):  # a relative step of 1e-11 .. 1e-7, around the default tol
                return p + random_quaternion(rng) * (abs(p) * 10.0 ** rng.uniform(-11.0, -7.0))
            p = random_quaternion(rng) * scale
            pts = [p, near(p), random_quaternion(rng) * scale]
            pts.append(near(pts[rng.integers(3)]))
            cases += [(cross_ratio, pts), (three_point_map, pts[:3])]
            h = random_halfspace_point(rng) * scale
            cases.append((geodesic_halfspace, [h, near(h)]))
            b = random_ball_point(rng) * min(scale, 0.5)
            cases.append((geodesic_disc, [b, near(b)]))
    decisions = [_coincide(f, *pts) for f, pts in cases]
    assert decisions == [_coincide(f, *(p * 0.5 for p in pts)) for f, pts in cases]
    assert 0 < sum(decisions) < len(decisions)


def test_cayley_is_an_isometry():
    rng = make_rng(71)
    for _ in range(100):
        q1 = random_ball_point(rng)
        q2 = random_ball_point(rng)
        d = distance_disc(q1, q2)
        assert distance_halfspace(cayley(q1), cayley(q2)) == pytest.approx(
            d, rel=1e-9, abs=1e-9)


# -- points with an inf or nan component ----------------------------------

# the first two fail each model's rule on their own; the last two pass the
# half-space's real-part test and are caught on the branches they lead to
NON_FINITE = [q(math.nan), q(0, math.inf), q(1, math.nan), q(1, 0, -math.inf)]

# each function with the point p in each point argument, and a point of its
# model in the others
POINT_CALLS = {
    "distance_disc(p, .)": (OutOfDomain, lambda p: distance_disc(p, HALF)),
    "distance_disc(., p)": (OutOfDomain, lambda p: distance_disc(HALF, p)),
    "metric_disc": (OutOfDomain, lambda p: metric_disc(p, ONE)),
    "kobayashi_distance(p, .)": (OutOfDomain, lambda p: kobayashi_distance(p, HALF)),
    "kobayashi_distance(., p)": (OutOfDomain, lambda p: kobayashi_distance(HALF, p)),
    "geodesic_disc(p, .)": (OutOfDomain, lambda p: geodesic_disc(p, HALF)),
    "geodesic_disc(., p)": (OutOfDomain, lambda p: geodesic_disc(HALF, p)),
    "geodesic_sample_rows(p, .)": (OutOfDomain, lambda p: geodesic_sample_rows(p, HALF, 5)),
    "geodesic_sample_rows(., p)": (OutOfDomain, lambda p: geodesic_sample_rows(HALF, p, 5)),
    "integrated_length_disc": (OutOfDomain, lambda p: integrated_length_disc([ZERO, p, HALF])),
    "distance_halfspace(p, .)": (OutOfDomain, lambda p: distance_halfspace(p, ONE)),
    "distance_halfspace(., p)": (OutOfDomain, lambda p: distance_halfspace(ONE, p)),
    "metric_halfspace": (OutOfDomain, lambda p: metric_halfspace(p, ONE)),
    "geodesic_halfspace(p, .)": (OutOfDomain, lambda p: geodesic_halfspace(p, ONE)),
    "geodesic_halfspace(., p)": (OutOfDomain, lambda p: geodesic_halfspace(ONE, p)),
    "geodesic_sample_halfspace(p, .)": (OutOfDomain,
                                        lambda p: geodesic_sample_halfspace(p, ONE, 5)),
    "geodesic_sample_halfspace(., p)": (OutOfDomain,
                                        lambda p: geodesic_sample_halfspace(ONE, p, 5)),
    # the whole of H u {inf} is their domain; a non-finite component is no point of it
    "apply": (NonFiniteResult, lambda p: apply(Mat2H.identity(), p)),
    # a raw matrix with p as an entry is no map, at a finite point or at INFINITY
    "apply(a = p)": (NonFiniteResult, lambda p: apply(Mat2H(p, ZERO, ZERO, ONE), HALF)),
    "apply(b = p)": (NonFiniteResult, lambda p: apply(Mat2H(ONE, p, ZERO, ONE), HALF)),
    "apply(c = p)": (NonFiniteResult, lambda p: apply(Mat2H(ONE, ZERO, p, ONE), HALF)),
    "apply(d = p)": (NonFiniteResult, lambda p: apply(Mat2H(ONE, ZERO, ZERO, p), HALF)),
    "apply(a = p, inf)": (NonFiniteResult, lambda p: apply(Mat2H(p, ZERO, ZERO, ONE), INFINITY)),
    "apply(b = p, inf)": (NonFiniteResult, lambda p: apply(Mat2H(ONE, p, ZERO, ONE), INFINITY)),
    "apply(c = p, inf)": (NonFiniteResult, lambda p: apply(Mat2H(ONE, ZERO, p, ONE), INFINITY)),
    "apply(d = p, inf)": (NonFiniteResult, lambda p: apply(Mat2H(ONE, ZERO, ZERO, p), INFINITY)),
    # each generator decides as apply of its matrix does, and so does a pipeline,
    # on its parameter too
    "Translation(p)": (NonFiniteResult, lambda p: apply_generator(Translation(p), HALF)),
    "Rotation(p)": (NonFiniteResult, lambda p: apply_generator(Rotation(p), HALF)),
    "Dilation(|p|)": (NonFiniteResult, lambda p: apply_generator(Dilation(abs(p)), HALF)),
    "Translation": (NonFiniteResult, lambda p: apply_generator(Translation(HALF), p)),
    "Rotation": (NonFiniteResult, lambda p: apply_generator(Rotation(I), p)),
    "Dilation": (NonFiniteResult, lambda p: apply_generator(Dilation(2.0), p)),
    "Inversion": (NonFiniteResult, lambda p: apply_generator(Inversion(), p)),
    "apply_generators": (NonFiniteResult,
                         lambda p: apply_generators([Dilation(2.0), Inversion()], p)),
    "cayley": (NonFiniteResult, cayley),
    "cayley_inv": (NonFiniteResult, cayley_inv),
    # and a tangent vector's length must fit a float
    "metric_disc tau": (NonFiniteResult, lambda p: metric_disc(HALF, p)),
    "metric_halfspace tau": (NonFiniteResult, lambda p: metric_halfspace(ONE, p)),
}


@pytest.mark.parametrize("p", NON_FINITE, ids=str)
@pytest.mark.parametrize("name", POINT_CALLS)
def test_a_non_finite_component_is_a_typed_error(name, p):
    # each of these returned nan, a nan row, or a half-line whose foot is 0
    error, call = POINT_CALLS[name]
    with pytest.raises(error):
        call(p)


def test_huge_finite_points_and_lengths():
    # a huge finite point is in the half-space, on either side
    a, b = q(1, 1e308, 1e308), q(2)
    for d in (distance_halfspace(a, b), distance_halfspace(b, a)):
        assert d == 709.196208642166
        assert exact.rel_err(d, exact.dist_half(a, b)) <= 4 * EPS
    # |tau| / (2 Re q) = 5e309 returned inf
    with pytest.raises(NonFiniteResult):
        metric_halfspace(q(1e-300), q(1e10))
