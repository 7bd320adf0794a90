"""End-to-end acceptance suite.

Twelve gates, one test function each: bulk determinant multiplicativity
under a time budget, inverse correctness, the induced-map homomorphism,
cross-ratio transformation laws with the concyclicity criterion, quadric
pushforward, pinned spot values, isometry invariance, integrated
geodesic length, the Cayley bridge between the two models, the
Kobayashi/Poincare gap, the triangle inequality, and conformality of
the induced maps.  Each test prints the statistics it asserts on, so a
failure shows the measured numbers.
"""

import math
import time

import numpy as np

from qmobius import sampling as smp
from qmobius.crossratio import (QuadricF3, cross_ratio, is_concyclic,
                                on_quadric, transform_quadric)
from qmobius.flt import (FLT, Dilation, Inversion, MobiusCanonical, Rotation,
                         Translation, apply, apply_generator,
                         canonical_det_check, is_constant, is_infinity,
                         jacobian)
from qmobius.hypgeo import (cayley, cayley_inv, distance_disc,
                            distance_halfspace, geodesic_sample,
                            geodesic_sample_rows, integrated_length_disc,
                            metric_disc, metric_halfspace)
from qmobius.kobayashi import (kobayashi_image_modulus_sq,
                               non_isometry_witness,
                               poincare_image_modulus_sq)
from qmobius.mat2h import (Mat2H, cayley_conjugate, cayley_conjugate_inv,
                           det_h, det_h_many, inverse, inverse_form_a,
                           inverse_form_b, mat_mul_many, normalize)
from qmobius.quat import Quaternion

ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)


def test_01_determinant_multiplicative_on_bulk_random_pairs():
    n = 10_000
    rng = smp.make_rng(101)
    # components in [-5, 5] keep every entry modulus at most 10
    comps = rng.uniform(-5.0, 5.0, size=(n, 8, 4))
    As = comps[:, :4, :].copy()
    Bs = comps[:, 4:, :].copy()

    # pin the bulk path to the scalar one before timing anything
    worst_bulk = 0.0
    det_a = det_h_many(As)
    for i in range(100):
        A = Mat2H(*(Quaternion(*(float(t) for t in row)) for row in As[i]))
        worst_bulk = max(worst_bulk,
                         abs(det_a[i] - det_h(A)) / (1.0 + det_a[i]))
    assert worst_bulk <= 1e-12

    t0 = time.perf_counter()
    lhs = det_h_many(mat_mul_many(As, Bs))
    rhs = det_h_many(As) * det_h_many(Bs)
    worst = float(np.max(np.abs(lhs - rhs) / (1.0 + rhs)))
    elapsed = time.perf_counter() - t0
    print(f"pairs={n} worst_rel={worst:.3e} scalar_agree={worst_bulk:.3e} "
          f"elapsed={elapsed:.3f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_02_inverse_identity_residual_and_both_forms_agree():
    n = 10_000
    rng = smp.make_rng(102)
    ident = Mat2H.identity()
    worst_ident = 0.0
    worst_forms = 0.0
    min_det = math.inf
    for _ in range(n):
        A = smp.random_invertible_matrix(rng, 2.0)
        min_det = min(min_det, det_h(A))
        P = A @ inverse(A)
        worst_ident = max(worst_ident,
                          max(abs(p - e) for p, e in zip(P, ident)))
        Fa = inverse_form_a(A)
        Fb = inverse_form_b(A)
        worst_forms = max(worst_forms,
                          max(abs(p - q) for p, q in zip(Fa, Fb)))
    print(f"n={n} min_det={min_det:.3e} "
          f"worst_identity={worst_ident:.3e} worst_forms={worst_forms:.3e}")
    assert min_det > 1e-3
    assert worst_ident <= 1e-8
    assert worst_forms <= 1e-8


def test_03_induced_maps_compose_as_matrices_and_constants_are_flagged():
    rng = smp.make_rng(103)
    worst = 0.0
    for _ in range(1000):
        A = smp.random_invertible_matrix(rng, 2.0)
        B = smp.random_invertible_matrix(rng, 2.0)
        AB = A @ B
        probes = 0
        while probes < 8:
            q = smp.random_quaternion(rng, 2.0)
            # keep both stages away from their poles
            if abs(B.c * q + B.d) < 0.1:
                continue
            step = apply(B, q)
            if not isinstance(step, Quaternion) or abs(A.c * step + A.d) < 0.1:
                continue
            lhs = apply(AB, q)
            rhs = apply(A, step)
            if isinstance(lhs, Quaternion) and isinstance(rhs, Quaternion):
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
            probes += 1
    misflagged = 0
    for _ in range(300):
        c = smp.random_quaternion(rng, 2.0)
        d = smp.random_quaternion(rng, 2.0)
        while max(abs(c), abs(d)) < 0.2:
            c = smp.random_quaternion(rng, 2.0)
            d = smp.random_quaternion(rng, 2.0)
        k = smp.random_quaternion(rng, 2.0)
        rank_one = Mat2H(k * c, k * d, c, d)
        if not is_constant(rank_one):
            misflagged += 1
        A = smp.random_invertible_matrix(rng, 2.0)
        if is_constant(A):
            misflagged += 1
    print(f"pairs=1000 probes=8 worst_rel={worst:.3e} misflagged={misflagged}")
    assert worst <= 1e-8
    assert misflagged == 0


def test_04_cross_ratio_laws_and_concyclicity_criterion():
    rng = smp.make_rng(104)
    worst = 0.0
    for _ in range(1000):
        pts = smp.random_separated_points(rng, 4, min_norm=0.15)
        cr = cross_ratio(*pts)
        denom = 1.0 + abs(cr)
        b = smp.random_quaternion(rng, 2.0)
        worst = max(worst,
                    abs(cross_ratio(*(p + b for p in pts)) - cr) / denom)
        lam = float(rng.uniform(0.2, 3.0))
        worst = max(worst,
                    abs(cross_ratio(*(p * lam for p in pts)) - cr) / denom)
        a = smp.random_unit_quaternion(rng)
        rot = cross_ratio(*(a * p for p in pts))
        worst = max(worst, abs(rot - a * cr * a.conj()) / denom)
        inv = cross_ratio(*(p.inverse() for p in pts))
        q3 = pts[2]
        worst = max(worst, abs(inv - q3.inverse() * cr * q3) / denom)
    bad = 0
    done = 0
    while done < 1000:
        point = smp.random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(t2 - t1 for t1, t2 in zip(angles, angles[1:])) < 0.05:
            continue
        qs = [point(t) for t in angles]
        cr = cross_ratio(*qs)
        if not is_concyclic(*qs, tol=1e-7):
            bad += 1
        if cr.im_norm() > 1e-7 * (1.0 + abs(cr)):
            bad += 1
        done += 1
    for _ in range(1000):
        generic = smp.random_separated_points(rng, 4)
        cr = cross_ratio(*generic)
        has_im = cr.im_norm() > 1e-6 * (1.0 + abs(cr))
        if has_im and is_concyclic(*generic, tol=1e-9):
            bad += 1
        if not has_im and not is_concyclic(*generic, tol=1e-5):
            bad += 1
    print(f"quadruples=1000 worst_rel={worst:.3e} "
          f"concyclic_mismatches={bad}")
    assert worst <= 1e-9
    assert bad == 0


def test_05_quadric_pushforward_tracks_point_images():
    rng = smp.make_rng(105)
    bad = 0
    done = 0
    while done < 1000:
        if rng.uniform() < 0.5:
            Q, c, r = smp.random_sphere_quadric(rng)
            p = smp.random_point_on_sphere(rng, c, r)
        else:
            Q = smp.random_plane_quadric(rng)
            p = smp.random_point_on_plane(rng, Q)
        k = int(rng.integers(0, 4))
        if k == 0:
            g = Translation(smp.random_quaternion(rng, 1.5))
        elif k == 1:
            g = Rotation(smp.random_unit_quaternion(rng))
        elif k == 2:
            g = Dilation(float(rng.uniform(0.2, 3.0)))
        else:
            g = Inversion()
        image = apply_generator(g, p)
        if not isinstance(image, Quaternion):
            continue
        if not on_quadric(image, transform_quadric(g, Q), tol=1e-7):
            bad += 1
        done += 1
    print(f"triples=1000 off_quadric={bad}")
    assert bad == 0


def test_06_pinned_spot_values():
    half = Quaternion(0.5, 0.0, 0.0, 0.0)
    d = distance_disc(ZERO, half)
    err_d = abs(d - 0.5 * math.log(3.0))
    cr = cross_ratio(ZERO, half, ONE, Quaternion(-1.0, 0.0, 0.0, 0.0))
    err_cr = abs(cr - 3.0)
    errs_canon = []
    for q0, expect in [(ZERO, 1.0),
                       (half, 0.75),
                       (Quaternion(0.0, 0.6, 0.0, 0.0), 0.64)]:
        g = MobiusCanonical(ONE, ONE, q0)
        errs_canon.append(abs(canonical_det_check(g) - expect))
    err_m = abs(metric_halfspace(ONE, ONE) - 0.5)
    print(f"distance={err_d:.3e} cross_ratio={err_cr:.3e} "
          f"canonical={max(errs_canon):.3e} metric={err_m:.3e}")
    assert err_d <= 1e-12
    assert err_cr <= 1e-12
    assert max(errs_canon) <= 1e-12
    assert err_m <= 1e-12


def test_07_ball_group_and_conjugation_preserve_distance_and_metric():
    rng = smp.make_rng(107)
    worst_dist = 0.0
    worst_conj = 0.0
    worst_fd = 0.0
    h = 1e-6
    for _ in range(1000):
        g = FLT(smp.random_sp11(rng))
        p = smp.random_ball_point(rng, 0.85)
        q = smp.random_ball_point(rng, 0.85)
        d = distance_disc(p, q)
        worst_dist = max(worst_dist,
                         abs(distance_disc(g(p), g(q)) - d) / (1.0 + d))
        worst_conj = max(worst_conj,
                         abs(distance_disc(p.conj(), q.conj()) - d) / (1.0 + d))
        base = smp.random_ball_point(rng, 0.8)
        v = smp.random_unit_quaternion(rng)
        push = (g(base + v * h) - g(base - v * h)) * (1.0 / (2.0 * h))
        lhs = metric_disc(g(base), push)
        rhs = metric_disc(base, v)
        worst_fd = max(worst_fd, abs(lhs - rhs) / (1.0 + rhs))
    print(f"maps=1000 worst_distance={worst_dist:.3e} "
          f"worst_conjugation={worst_conj:.3e} worst_metric_fd={worst_fd:.3e}")
    assert worst_dist <= 1e-9
    assert worst_conj <= 1e-9
    assert worst_fd <= 1e-5


def test_08_integrated_length_matches_distance_in_bulk():
    rng = smp.make_rng(108)
    pairs = []
    while len(pairs) < 100:
        p = smp.random_ball_point(rng, 0.85)
        q = smp.random_ball_point(rng, 0.85)
        if distance_disc(p, q) >= 0.05:
            pairs.append((p, q))
    # the rows variant and the quaternion-list variant must integrate to
    # the same length before the bulk pass is trusted
    p0, q0 = pairs[0]
    assert abs(integrated_length_disc(geodesic_sample(p0, q0, 500))
               - integrated_length_disc(geodesic_sample_rows(p0, q0, 500))) <= 1e-12

    t0 = time.perf_counter()
    worst = 0.0
    for p, q in pairs:
        path = geodesic_sample_rows(p, q, 10_000)
        length = integrated_length_disc(path)
        d = distance_disc(p, q)
        worst = max(worst, abs(length - d) / d)
    elapsed = time.perf_counter() - t0
    print(f"paths=100 samples=10000 worst_rel={worst:.3e} "
          f"elapsed={elapsed:.3f}s")
    assert worst <= 1e-5
    assert elapsed < 10.0


def test_09_cayley_bridge_between_ball_and_halfspace():
    err0 = abs(cayley(ZERO) - ONE)
    assert is_infinity(cayley(ONE))
    err_i = abs(cayley(Quaternion(0.0, 0.5, 0.0, 0.0))
                - Quaternion(0.6, 0.8, 0.0, 0.0))
    print(f"spot_zero={err0:.3e} spot_half_i={err_i:.3e}")
    assert err0 <= 1e-12
    assert err_i <= 1e-12

    rng = smp.make_rng(109)
    worst_iso = 0.0
    for _ in range(1000):
        p = smp.random_ball_point(rng, 0.9)
        q = smp.random_ball_point(rng, 0.9)
        d = distance_disc(p, q)
        w = distance_halfspace(cayley(p), cayley(q))
        worst_iso = max(worst_iso, abs(w - d) / (1.0 + d))
    worst_conj = 0.0
    for _ in range(500):
        A = smp.random_sp11(rng)
        N = cayley_conjugate_inv(A)
        w = smp.random_halfspace_point(rng)
        lhs = apply(N, w)
        rhs = cayley(apply(A, cayley_inv(w)))
        worst_conj = max(worst_conj, abs(lhs - rhs) / (1.0 + abs(rhs)))
        back = cayley_conjugate(N)
        worst_conj = max(worst_conj,
                         max(abs(x - y) for x, y in zip(back, A)))
        B = smp.random_slhplus(rng)
        M = cayley_conjugate(B)
        p = smp.random_ball_point(rng, 0.9)
        lhs = apply(M, p)
        rhs = cayley_inv(apply(B, cayley(p)))
        worst_conj = max(worst_conj, abs(lhs - rhs) / (1.0 + abs(rhs)))
        back = cayley_conjugate_inv(M)
        worst_conj = max(worst_conj,
                         max(abs(x - y) for x, y in zip(back, B)))
    print(f"pairs=1000 worst_isometry={worst_iso:.3e} "
          f"conjugations=1000 worst_conjugation={worst_conj:.3e}")
    assert worst_iso <= 1e-9
    assert worst_conj <= 1e-9


def test_10_kobayashi_gap_witness_axes_and_positivity():
    report = non_isometry_witness(grid=20)
    wit = report["witness"]
    err_q = abs(wit["Q"] - 0.4705882)
    err_c = abs(wit["C"] - 0.4375)
    print(f"Q_err={err_q:.3e} C_err={err_c:.3e} gap={wit['gap']:.6f} "
          f"grid_max_gap={report['grid_max_gap']:.6f}")
    assert err_q <= 1e-6
    assert err_c <= 1e-6
    assert wit["gap"] > 0.03
    assert report["grid_max_gap"] >= wit["gap"] - 1e-12

    # every modulus call recomputes through an automorphism and compares
    # against the closed form at 1e-10 internally; random phases keep
    # that cross-check busy
    rng = smp.make_rng(110)
    worst_formula = 0.0
    for _ in range(500):
        a = float(rng.uniform(0.0, 0.95)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        b = float(rng.uniform(0.0, 0.95)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        qv = poincare_image_modulus_sq(a, b)
        cv = kobayashi_image_modulus_sq(a, b)
        assert qv >= cv - 1e-12
        a2 = abs(a) ** 2
        b2 = abs(b) ** 2
        formula = a2 * b2 * (1.0 - a2) * (1.0 - b2) / (1.0 + a2 * b2)
        worst_formula = max(worst_formula, abs((qv - cv) - formula))
    worst_axis = 0.0
    for t in np.linspace(0.0, 0.9, 19):
        t = float(t)
        worst_axis = max(worst_axis,
                         abs(poincare_image_modulus_sq(t, 0.0)
                             - kobayashi_image_modulus_sq(t, 0.0)),
                         abs(poincare_image_modulus_sq(0.0, t)
                             - kobayashi_image_modulus_sq(0.0, t)))
    min_gap = math.inf
    for a in np.linspace(0.1, 0.9, 9):
        for b in np.linspace(0.1, 0.9, 9):
            min_gap = min(min_gap,
                          poincare_image_modulus_sq(float(a), float(b))
                          - kobayashi_image_modulus_sq(float(a), float(b)))
    print(f"worst_gap_formula={worst_formula:.3e} worst_axis={worst_axis:.3e} "
          f"min_offaxis_gap={min_gap:.3e}")
    assert worst_formula <= 1e-10
    assert worst_axis <= 1e-12
    assert min_gap > 0.0


def test_11_triangle_inequality_in_bulk():
    rng = smp.make_rng(111)
    worst_slack = 0.0
    for _ in range(10_000):
        a = smp.random_ball_point(rng, 0.95)
        b = smp.random_ball_point(rng, 0.95)
        c = smp.random_ball_point(rng, 0.95)
        slack = distance_disc(a, b) + distance_disc(b, c) - distance_disc(a, c)
        worst_slack = min(worst_slack, slack)
    print(f"triples=10000 worst_slack={worst_slack:.3e}")
    assert worst_slack >= -1e-9


def test_12_induced_maps_are_conformal():
    rng = smp.make_rng(112)
    worst = 0.0
    done = 0
    while done < 100:
        A = normalize(smp.random_invertible_matrix(rng, 1.5))
        q = smp.random_quaternion(rng, 1.5)
        if abs(A.c * q + A.d) < 0.4:
            continue
        J = jacobian(FLT(A), q)
        M = J.T @ J
        lam2 = float(np.trace(M)) / 4.0
        worst = max(worst, float(np.max(np.abs(M - lam2 * np.eye(4)))))
        done += 1
    print(f"maps=100 worst_offscale={worst:.3e}")
    assert worst <= 1e-4
