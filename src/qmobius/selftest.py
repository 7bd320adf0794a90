"""Seeded invariant suites behind the CLI selftest subcommand.

Each suite fuzzes one family of identities and reports the worst error
seen; the suite passes when that error stays below its bound.  The
acceptance tests in the repository run heavier versions of the same
checks.
"""

from __future__ import annotations

import math

from . import sampling as smp
from .crossratio import cross_ratio, is_concyclic, on_quadric, transform_quadric
from .flt import (FLT, apply, apply_generator, decompose_generators,
                  is_constant, jacobian)
from .hypgeo import (cayley, distance_disc, distance_halfspace, geodesic_sample,
                     integrated_length_disc, metric_disc)
from .kobayashi import (kobayashi_image_modulus_sq, non_isometry_witness,
                        poincare_image_modulus_sq)
from .mat2h import GroupTag, Mat2H, classify, det_h, inverse
from .quat import Quaternion


def _suite(max_err: float, bound: float, n: int) -> dict:
    """A suite passes when it ran at least once and stayed within bound."""
    return {"ok": bool(n > 0 and max_err <= bound), "max_err": max_err,
            "bound": bound, "n": n}


def binet_suite(rng, iters: int) -> dict:
    worst = 0.0
    for _ in range(iters):
        A = smp.random_matrix(rng, 10.0)
        B = smp.random_matrix(rng, 10.0)
        lhs = det_h(A @ B)
        rhs = det_h(A) * det_h(B)
        worst = max(worst, abs(lhs - rhs) / (1.0 + rhs))
    return _suite(worst, 1e-9, iters)


def inverse_suite(rng, iters: int) -> dict:
    worst = 0.0
    ident = Mat2H.identity()
    for _ in range(iters):
        A = smp.random_invertible_matrix(rng, 2.0)
        P = A @ inverse(A)
        worst = max(worst, max(abs(p - q) for p, q in zip(P, ident)))
    return _suite(worst, 1e-8, iters)


def homomorphism_suite(rng, iters: int) -> dict:
    worst = 0.0
    for _ in range(iters):
        A = smp.random_invertible_matrix(rng, 2.0)
        B = smp.random_invertible_matrix(rng, 2.0)
        AB = A @ B
        for _ in range(4):
            q = smp.random_quaternion(rng, 2.0)
            lhs = apply(AB, q)
            step = apply(B, q)
            if not isinstance(step, Quaternion):
                continue
            rhs = apply(A, step)
            if isinstance(lhs, Quaternion) and isinstance(rhs, Quaternion):
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return _suite(worst, 1e-8, iters)


def cross_ratio_suite(rng, iters: int) -> dict:
    worst = 0.0
    for _ in range(iters):
        pts = smp.random_separated_points(rng, 4, min_norm=0.15)
        cr = cross_ratio(*pts)
        a = smp.random_unit_quaternion(rng)
        rot = cross_ratio(*(a * p for p in pts))
        worst = max(worst, abs(rot - a * cr * a.conj()) / (1.0 + abs(cr)))
        inv = cross_ratio(*(p.inverse() for p in pts))
        q3 = pts[2]
        expected = q3.inverse() * cr * q3
        worst = max(worst, abs(inv - expected) / (1.0 + abs(cr)))
    return _suite(worst, 1e-9, iters)


def concyclic_suite(rng, iters: int) -> dict:
    bad = 0
    for _ in range(iters):
        point = smp.random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(b - a for a, b in zip(angles, angles[1:])) < 0.05:
            continue
        qs = [point(t) for t in angles]
        if not is_concyclic(*qs, tol=1e-7):
            bad += 1
        generic = smp.random_separated_points(rng, 4)
        cr = cross_ratio(*generic)
        if cr.im_norm() > 1e-6 * (1.0 + abs(cr)) and is_concyclic(*generic, tol=1e-9):
            bad += 1
    return _suite(float(bad), 0.0, iters)


def quadric_suite(rng, iters: int) -> dict:
    bad = 0
    for _ in range(iters):
        if rng.uniform() < 0.5:
            Q, c, r = smp.random_sphere_quadric(rng)
            p = smp.random_point_on_sphere(rng, c, r)
        else:
            Q = smp.random_plane_quadric(rng)
            p = smp.random_point_on_plane(rng, Q)
        g = _random_generator(rng)
        image = apply_generator(g, p)
        if not isinstance(image, Quaternion):
            continue
        if not on_quadric(image, transform_quadric(g, Q), tol=1e-7):
            bad += 1
    return _suite(float(bad), 0.0, iters)


def _random_generator(rng):
    from .flt import Dilation, Inversion, Rotation, Translation
    k = rng.integers(0, 4)
    if k == 0:
        return Translation(smp.random_quaternion(rng, 1.5))
    if k == 1:
        return Rotation(smp.random_unit_quaternion(rng))
    if k == 2:
        return Dilation(float(rng.uniform(0.2, 3.0)))
    return Inversion()


def distance_suite(rng, iters: int) -> dict:
    worst = 0.0
    for _ in range(iters):
        g = FLT(smp.random_sp11(rng))
        p = smp.random_ball_point(rng)
        q = smp.random_ball_point(rng)
        d = distance_disc(p, q)
        worst = max(worst, abs(distance_disc(g(p), g(q)) - d) / (1.0 + d))
        r = smp.random_ball_point(rng)
        slack = distance_disc(p, q) + distance_disc(q, r) - distance_disc(p, r)
        worst = max(worst, max(0.0, -slack))
    return _suite(worst, 1e-9, iters)


def integrated_suite(rng, iters: int) -> dict:
    worst = 0.0
    for _ in range(min(iters, 20)):
        p = smp.random_ball_point(rng)
        q = smp.random_ball_point(rng)
        if abs(p - q) < 1e-3:
            continue
        d = distance_disc(p, q)
        approx = integrated_length_disc(geodesic_sample(p, q, 2000))
        worst = max(worst, abs(approx - d) / (1.0 + d))
    return _suite(worst, 1e-5, min(iters, 20))


def cayley_suite(rng, iters: int) -> dict:
    worst = 0.0
    for _ in range(iters):
        p = smp.random_ball_point(rng)
        q = smp.random_ball_point(rng)
        if abs(p - q) < 1e-6:
            continue
        d = distance_disc(p, q)
        w = distance_halfspace(cayley(p), cayley(q))
        worst = max(worst, abs(w - d) / (1.0 + d))
    return _suite(worst, 1e-9, iters)


def kobayashi_suite(rng, iters: int) -> dict:
    worst = 0.0
    report = non_isometry_witness(grid=10)
    worst = max(worst, abs(report["witness"]["Q"] - 8.0 / 17.0))
    worst = max(worst, abs(report["witness"]["C"] - 0.4375))
    for _ in range(iters):
        a = complex(rng.uniform(0.0, 0.95), 0.0)
        b = complex(rng.uniform(0.0, 0.95), 0.0)
        gap = poincare_image_modulus_sq(a, b) - kobayashi_image_modulus_sq(a, b)
        worst = max(worst, max(0.0, -gap))
    return _suite(worst, 1e-9, iters)


def conformal_suite(rng, iters: int) -> dict:
    import numpy as np
    worst = 0.0
    done = 0
    while done < iters:
        f = FLT(smp.random_invertible_matrix(rng, 1.5, min_det_rel=0.1))
        q = smp.random_quaternion(rng, 1.5)
        a, b, c, d = f.matrix
        if abs(c * q + d) < 0.3:
            continue
        J = jacobian(f, q)
        G = J.T @ J
        lam = np.trace(G) / 4.0
        worst = max(worst, float(np.max(np.abs(G - lam * np.eye(4)))))
        done += 1
    return _suite(worst, 1e-4, iters)


def constant_suite(rng, iters: int) -> dict:
    bad = 0
    for _ in range(iters):
        c = smp.random_quaternion(rng, 2.0)
        d = smp.random_quaternion(rng, 2.0)
        k = smp.random_quaternion(rng, 2.0)
        if abs(c) < 0.05 and abs(d) < 0.05:
            continue
        singular = Mat2H(k * c, k * d, c, d)
        if not is_constant(singular, tol=1e-7):
            bad += 1
        A = smp.random_invertible_matrix(rng, 2.0)
        if is_constant(A):
            bad += 1
    return _suite(float(bad), 0.0, iters)


def sp11_suite(rng, iters: int) -> dict:
    bad = 0
    for _ in range(iters):
        M = smp.random_sp11(rng)
        if GroupTag.SP11 not in classify(M, tol=1e-7):
            bad += 1
        g = FLT(M)
        p = smp.random_ball_point(rng)
        if abs(g(p)) >= 1.0:
            bad += 1
    return _suite(float(bad), 0.0, iters)


ALL_SUITES = {
    "binet": binet_suite,
    "inverse": inverse_suite,
    "homomorphism": homomorphism_suite,
    "constant": constant_suite,
    "cross_ratio": cross_ratio_suite,
    "concyclic": concyclic_suite,
    "quadric": quadric_suite,
    "sp11": sp11_suite,
    "distance": distance_suite,
    "integrated": integrated_suite,
    "cayley": cayley_suite,
    "kobayashi": kobayashi_suite,
    "conformal": conformal_suite,
}


def run_all(seed: int = 0, iters: int = 200) -> dict:
    rng = smp.make_rng(seed)
    suites = {}
    for name, fn in ALL_SUITES.items():
        suites[name] = fn(rng, iters)
    return {"ok": all(s["ok"] for s in suites.values()),
            "seed": seed, "iters": iters, "suites": suites}
