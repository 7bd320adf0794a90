"""The invariant registry behind `qmobius selftest` and the acceptance gates.

Each suite owns the sampler, checks and bounds of one family of invariants
and runs on a numpy Generator at one size: `qmobius selftest` runs all of
them at --iters on one generator seeded by --seed, the acceptance tests
each at its own seed and size.  A suite declares each bound once, at
construction or with `check`; `worst` and `rel` keep a statistic's worst
value so far, and a NaN, worse than any number, fails its check.  A report
gives the cases evaluated and skipped, every checked statistic, and the
tightest check as worst_err, bound and margin: the share of its bound a
statistic uses up, worst_err / bound for an upper bound, bound / worst_err
for a positive floor, null for a count whose bound is 0 and for a NaN.  A
suite passes when it evaluated at least one case and every check holds.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import sampling as smp
from .crossratio import cross_ratio, is_concyclic, on_quadric, transform_quadric
from .flt import (FLT, Dilation, Inversion, MobiusCanonical, Rotation, Translation,
                  apply, apply_generator, is_constant, is_infinity, jacobian, three_point_map)
from .hypgeo import (cayley, cayley_inv, distance_disc, distance_halfspace,
                     geodesic_disc, geodesic_halfspace, geodesic_sample_rows,
                     integrated_length_disc, metric_disc, metric_halfspace)
from .kobayashi import (ball_automorphism, from_c2, kobayashi_distance,
                        non_isometry_witness, to_c2)
from .mat2h import (GroupTag, Mat2H, cayley_conjugate, cayley_conjugate_inv,
                    classify, det_h, det_h_many, inverse, inverse_form_a,
                    inverse_form_b, mat_mul_many, normalize)
from .quat import I, J, K, ONE, ZERO, Quaternion

_HOLDS = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}


def _finite(x: float | None) -> float | None:
    return x if x is not None and math.isfinite(x) else None


def _margin(value: float, op: str, bound: float) -> float | None:
    if bound == 0.0 or value != value:
        return None
    if op == "<=":
        return _finite(value / bound)
    if bound > 0.0:
        return bound / value if value > 0.0 else None
    return _finite(max(0.0, value / bound))  # a floor below zero: a deficit


class Suite:
    """Case counts and checked statistics of one suite run; each keyword
    name=bound declares a statistic held to <= bound, starting from 0.0."""

    def __init__(self, n_checked: int = 0, **bounds: float) -> None:
        self.n_checked = n_checked
        self.n_skipped = 0
        self.checks: dict[str, tuple[float, str, float]] = {}
        for name, bound in bounds.items():
            self.check(name, 0.0, "<=", bound)

    def check(self, name: str, value: float, op: str, bound: float) -> None:
        """Record the statistic `value op bound`, op one of <=, >=, >."""
        self.checks[name] = (float(value), op, float(bound))

    def worst(self, name: str, *values: float) -> None:
        """Keep the worst of the stored value and each of `values`: the largest
        under <=, the smallest under >= and >.  A NaN is worse than any number."""
        old, op, bound = self.checks[name]
        for value in map(float, values):
            if old == old and (value != value or (value > old if op == "<=" else value < old)):
                old = value
        self.checks[name] = (old, op, bound)

    def rel(self, name: str, got, want) -> None:
        """worst(name, |got - want| / (1 + |want|))."""
        self.worst(name, abs(got - want) / (1.0 + abs(want)))

    def report(self) -> dict:
        graded = [(name, value, bound, _HOLDS[op](value, bound),
                   _margin(value, op, bound))
                  for name, (value, op, bound) in self.checks.items()]
        name, value, bound, _, margin = max(
            graded, key=lambda g: (not g[3], -math.inf if g[4] is None else g[4]))
        return {"ok": self.n_checked > 0 and all(g[3] for g in graded),
                "n_checked": self.n_checked, "n_skipped": self.n_skipped,
                "check": name, "worst_err": _finite(value),
                "bound": _finite(bound), "margin": margin,
                "stats": {g[0]: _finite(g[1]) for g in graded}}


def _complex_image(comps):
    """chi(A), complex 4x4, of each matrix A of the component rows (k, 4, 4)."""
    alpha, beta = comps[..., 0] + 1j * comps[..., 1], comps[..., 2] + 1j * comps[..., 3]
    chi = np.stack([alpha, beta, -beta.conj(), alpha.conj()], -1).reshape(-1, 2, 2, 2, 2)
    return chi.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)


def binet_suite(rng, n: int) -> Suite:
    """det_h is multiplicative, on the batched kernels pinned to the scalar, and
    det_h(A)^2 = |det chi(A)|, chi(A) complex 4x4 with each entry alpha + beta j
    (to_c2's pair) as [[alpha, beta], [-conj beta, conj alpha]] (Aslaksen, 1996)."""
    s = Suite(n_checked=n, scalar_agree=1e-12, complex_image=1e-12)
    # components in [-5, 5] keep every entry modulus at most 10
    comps = rng.uniform(-5.0, 5.0, size=(n, 8, 4))
    As = comps[:, :4, :].copy()
    Bs = comps[:, 4:, :].copy()
    det_a = det_h_many(As)
    k = min(n, 100)
    roots = np.sqrt(np.abs(np.linalg.det(_complex_image(As[:k]))))
    for i in range(k):
        dh = det_h(Mat2H(*(Quaternion(*(float(t) for t in row)) for row in As[i])))
        s.rel("scalar_agree", dh, det_a[i])
        s.rel("complex_image", roots[i], dh)
    lhs = det_h_many(mat_mul_many(As, Bs))
    rhs = det_a * det_h_many(Bs)
    s.check("worst_rel", np.max(np.abs(lhs - rhs) / (1.0 + rhs), initial=0.0),
            "<=", 1e-9)
    return s


def inverse_suite(rng, n: int) -> Suite:
    """A A^-1 = I, the two Cramer-type inverse forms agree, and chi(A^-1) =
    chi(A)^-1 on binet's complex image, a route sharing no formula with inverse."""
    s = Suite(n_checked=n)
    s.check("min_det", math.inf, ">", 1e-3)
    s.check("worst_identity", 0.0, "<=", 1e-8)
    s.check("worst_forms", 0.0, "<=", 1e-8)
    s.check("worst_complex_inverse", 0.0, "<=", 1e-12)
    ident = Mat2H.identity()
    pairs = []
    for _ in range(n):
        A = smp.random_invertible_matrix(rng, 2.0)
        s.worst("min_det", det_h(A))
        Ai = inverse(A)
        s.worst("worst_identity", *(abs(p - e) for p, e in zip(A @ Ai, ident)))
        forms = zip(inverse_form_a(A), inverse_form_b(A))
        s.worst("worst_forms", *(abs(p - q) for p, q in forms))
        pairs.append((A, Ai))
    chi = _complex_image(np.array(pairs, dtype=float).reshape(-1, 4, 4))
    want = np.linalg.inv(chi[0::2])  # each relative to 1 + its largest entry
    s.worst("worst_complex_inverse", *(np.abs(chi[1::2] - want).max(axis=(1, 2))
                                       / (1.0 + np.abs(want).max(axis=(1, 2)))))
    return s


def homomorphism_suite(rng, n: int) -> Suite:
    """The induced maps compose as their matrices, at 8 probes per pair away
    from both poles, and exactly the rank-one matrices induce constants."""
    s = Suite(n_checked=8 * n + 3 * n // 10, worst_rel=1e-8)
    for _ in range(n):
        A = smp.random_invertible_matrix(rng, 2.0)
        B = smp.random_invertible_matrix(rng, 2.0)
        AB = A @ B
        probes = 0
        while probes < 8:
            q = smp.random_quaternion(rng, 2.0)
            # both stages stay away from their poles, so no side is infinite
            step = apply(B, q) if abs(B.c * q + B.d) >= 0.1 else None
            if step is None or abs(A.c * step + A.d) < 0.1:
                s.n_skipped += 1
                continue
            s.rel("worst_rel", apply(AB, q), apply(A, step))
            probes += 1
    misflagged = 0
    for _ in range(3 * n // 10):
        c = smp.random_quaternion(rng, 2.0)
        d = smp.random_quaternion(rng, 2.0)
        while max(abs(c), abs(d)) < 0.2:
            s.n_skipped += 1
            c = smp.random_quaternion(rng, 2.0)
            d = smp.random_quaternion(rng, 2.0)
        k = smp.random_quaternion(rng, 2.0)
        if not is_constant(Mat2H(k * c, k * d, c, d)):
            misflagged += 1
        if is_constant(smp.random_invertible_matrix(rng, 2.0)):
            misflagged += 1
    s.check("misflagged", misflagged, "<=", 0)
    return s


def cross_ratio_suite(rng, n: int) -> Suite:
    """Translation, dilation, rotation and inversion laws of the
    cross-ratio; its real part and imaginary norm against T(q1), T =
    three_point_map(q3, q4, q2): T(q1) = Y X is conjugate to CR = X Y; real
    cross-ratio if and only if concyclic, and a real cross-ratio for two
    ball points and their reflections in the sphere."""
    s = Suite(n_checked=4 * n, worst_rel=1e-9, worst_three_point=1e-13)
    for _ in range(n):
        pts = smp.random_separated_points(rng, 4, min_norm=0.15)
        cr = cross_ratio(*pts)
        t = three_point_map(pts[2], pts[3], pts[1])(pts[0])
        m = 1.0 + abs(cr)
        s.worst("worst_three_point", abs(t.w - cr.w) / m, abs(t.im_norm() - cr.im_norm()) / m)
        b = smp.random_quaternion(rng, 2.0)
        lam = float(rng.uniform(0.2, 3.0))
        a = smp.random_unit_quaternion(rng)
        laws = [cross_ratio(*(p + b for p in pts)) - cr,
                cross_ratio(*(p * lam for p in pts)) - cr,
                cross_ratio(*(a * p for p in pts)) - a * cr * a.conj(),
                cross_ratio(*(p.inverse() for p in pts)) - pts[2].inverse() * cr * pts[2]]
        s.worst("worst_rel", *(abs(e) / m for e in laws))
    bad = 0
    done = 0
    while done < n:
        point = smp.random_circle(rng)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi, size=4))
        if min(t2 - t1 for t1, t2 in zip(angles, angles[1:])) < 0.05:
            s.n_skipped += 1
            continue
        qs = [point(t) for t in angles]
        cr = cross_ratio(*qs)
        if not is_concyclic(*qs, tol=1e-7):
            bad += 1
        if cr.im_norm() > 1e-7 * (1.0 + abs(cr)):
            bad += 1
        done += 1
    for _ in range(n):
        generic = smp.random_separated_points(rng, 4)
        cr = cross_ratio(*generic)
        has_im = cr.im_norm() > 1e-6 * (1.0 + abs(cr))
        if has_im and is_concyclic(*generic, tol=1e-9):
            bad += 1
        if not has_im and not is_concyclic(*generic, tol=1e-5):
            bad += 1
    s.check("concyclic_mismatches", bad, "<=", 0)
    # 1/conj(q) is q reflected in the sphere; all four lie on the geodesic's circle
    s.check("worst_reflected_im", 0.0, "<=", 1e-9)
    for _ in range(n):
        q1, q2 = (smp.random_unit_quaternion(rng) * float(rng.uniform(0.1, 0.999))
                  for _ in range(2))
        cr = cross_ratio(q1, q2, q1.conj().inverse(), q2.conj().inverse())
        s.worst("worst_reflected_im", cr.im_norm() / (1.0 + abs(cr)))
    return s


def _random_map(rng):
    """One of the four generators, a matrix or a ball map as an FLT."""
    k = rng.integers(0, 6)
    if k == 0:
        return Translation(smp.random_quaternion(rng, 1.5))
    if k == 1:
        return Rotation(smp.random_unit_quaternion(rng))
    if k == 2:
        return Dilation(float(rng.uniform(0.2, 3.0)))
    if k == 3:
        return Inversion()
    if k == 4:
        return smp.random_invertible_matrix(rng, 1.5)
    return FLT(smp.random_sp11(rng))


def quadric_suite(rng, n: int) -> Suite:
    """A generator or a whole map carries a point of a sphere or 3-plane
    onto the pushed forward quadric."""
    s = Suite()
    bad = 0
    while s.n_checked < n:
        if rng.uniform() < 0.5:
            Q, c, r = smp.random_sphere_quadric(rng)
            p = smp.random_point_on_sphere(rng, c, r)
        else:
            Q = smp.random_plane_quadric(rng)
            p = smp.random_point_on_plane(rng, Q)
        f = _random_map(rng)
        image = apply(f, p) if isinstance(f, (FLT, Mat2H)) else apply_generator(f, p)
        if not isinstance(image, Quaternion):
            s.n_skipped += 1
            continue
        if not on_quadric(image, transform_quadric(f, Q), tol=1e-7):
            bad += 1
        s.n_checked += 1
    s.check("off_quadric", bad, "<=", 0)
    return s


def spots_suite(rng, n: int) -> Suite:
    """Pinned values of the distance, the cross-ratio, the canonical
    determinant and the metric; neither rng nor n is used."""
    s = Suite(n_checked=7, distance=1e-12, cross_ratio=1e-12, canonical=1e-12, metric=1e-12)
    half = Quaternion(0.5, 0.0, 0.0, 0.0)
    s.worst("distance", abs(distance_disc(ZERO, half) - 0.5 * math.log(3.0)))
    cr = cross_ratio(ZERO, half, ONE, Quaternion(-1.0, 0.0, 0.0, 0.0))
    s.worst("cross_ratio", abs(cr - 3.0))
    s.worst("canonical", *(abs(det_h(MobiusCanonical(ONE, ONE, q0).matrix_raw()) - expect)
                           for q0, expect in [(ZERO, 1.0), (half, 0.75),
                                              (Quaternion(0.0, 0.6, 0.0, 0.0), 0.64)]))
    s.worst("metric", abs(metric_halfspace(ONE, ONE) - 0.5),
            abs(metric_disc(half, ONE) - 4.0 / 3.0))
    return s


def distance_suite(rng, n: int) -> Suite:
    """The ball group and conjugation preserve the distance, and the ball
    group the metric (by a central difference); half the log of the
    cross-ratio against the geodesic's ends is the distance."""
    s = Suite(n_checked=n, worst_distance=1e-9, worst_conjugation=1e-9,
              worst_metric_fd=1e-5, worst_cross_ratio_route=1e-9)
    h = 1e-6
    for _ in range(n):
        g = FLT(smp.random_sp11(rng))
        p = smp.random_ball_point(rng, 0.85)
        q = smp.random_ball_point(rng, 0.85)
        d = distance_disc(p, q)
        s.rel("worst_distance", distance_disc(g(p), g(q)), d)
        s.rel("worst_conjugation", distance_disc(p.conj(), q.conj()), d)
        geo = geodesic_disc(p, q)
        s.rel("worst_cross_ratio_route", 0.5 * math.log(cross_ratio(p, q, geo.q3, geo.q4).w), d)
        base = smp.random_ball_point(rng, 0.8)
        v = smp.random_unit_quaternion(rng)
        push = (g(base + v * h) - g(base - v * h)) * (1.0 / (2.0 * h))
        s.rel("worst_metric_fd", metric_disc(g(base), push), metric_disc(base, v))
    return s


def integrated_suite(rng, n: int) -> Suite:
    """The integrated length of a 10,000-sample geodesic is the distance, near the sphere too."""
    s = Suite(n_checked=n + 1, worst_rel=1e-5)
    pairs = [(Quaternion(1 - 1e-6, 0.0, 0.0, 0.0), Quaternion(0.0, 0.6, 0.8, 0.0) * (1 - 1e-6))]
    while len(pairs) <= n:
        p = smp.random_ball_point(rng, 0.85)
        q = smp.random_ball_point(rng, 0.85)
        if distance_disc(p, q) >= 0.05:
            pairs.append((p, q))
        else:
            s.n_skipped += 1
    for p, q in pairs:
        length = integrated_length_disc(geodesic_sample_rows(p, q, 10_000))
        d = distance_disc(p, q)
        s.worst("worst_rel", abs(length - d) / d)
    return s


def cayley_suite(rng, n: int) -> Suite:
    """The Cayley map: spot values, isometry from the ball onto the
    half-space, the half-space line ends as Cayley images of the ball's,
    and conjugation between the two groups both ways."""
    s = Suite(n_checked=3 + n + n // 2)
    s.check("spot_zero", abs(cayley(ZERO) - ONE), "<=", 1e-12)
    s.check("spot_one_finite", not is_infinity(cayley(ONE)), "<=", 0)
    s.check("spot_half_i", abs(cayley(Quaternion(0.0, 0.5, 0.0, 0.0))
                               - Quaternion(0.6, 0.8, 0.0, 0.0)), "<=", 1e-12)
    for name in ("worst_isometry", "worst_ends", "worst_conjugation"):
        s.check(name, 0.0, "<=", 1e-9)
    for _ in range(n):
        p = smp.random_ball_point(rng, 0.9)
        q = smp.random_ball_point(rng, 0.9)
        d = distance_disc(p, q)
        u, v = cayley(p), cayley(q)
        s.rel("worst_isometry", distance_halfspace(u, v), d)
        # the closed-form ends against the Cayley images of the ball's ends
        line, ball = geodesic_halfspace(u, v), geodesic_disc(cayley_inv(u), cayley_inv(v))
        for e, f in ((line.e3, cayley(ball.q3)), (line.e4, cayley(ball.q4))):
            s.worst("worst_ends", abs(e - f) / (1.0 + abs(e))
                    if not (is_infinity(e) or is_infinity(f))
                    else 0.0 if e is f else math.inf)
    for _ in range(n // 2):
        A = smp.random_sp11(rng)
        N = cayley_conjugate_inv(A)
        w = smp.random_halfspace_point(rng)
        s.rel("worst_conjugation", apply(N, w), cayley(apply(A, cayley_inv(w))))
        back = zip(cayley_conjugate(N), A)
        s.worst("worst_conjugation", *(abs(x - y) for x, y in back))
        B = smp.random_slhplus(rng)
        M = cayley_conjugate(B)
        p = smp.random_ball_point(rng, 0.9)
        s.rel("worst_conjugation", apply(M, p), cayley_inv(apply(B, cayley(p))))
        back = zip(cayley_conjugate_inv(M), B)
        s.worst("worst_conjugation", *(abs(x - y) for x, y in back))
    return s


def _modulus_gap(a: complex, b: complex) -> float:
    """Q - C at (a, 0) and (0, b): tanh^2 of the two distances."""
    p, q = from_c2((a, 0j)), from_c2((0j, b))
    return math.tanh(distance_disc(p, q)) ** 2 - math.tanh(kobayashi_distance(p, q)) ** 2


def kobayashi_suite(rng, n: int) -> Suite:
    """The quaternionic image modulus exceeds the Kobayashi one off the
    axes by the closed-form gap and equals it on them, so the two metrics
    are not isometric.  The closed-form d_K matches artanh |phi_a(z)| through
    ball_automorphism, sinh^2 delta - sinh^2 d_K = |a1 w2 - a2 w1|^2 / (g_p g_q),
    and d_K = delta on complex lines through 0."""
    axis = [float(t) for t in np.linspace(0.0, 0.9, 19)]
    grid = [float(t) for t in np.linspace(0.1, 0.9, 9)]
    s = Suite(n_checked=1 + n + 2 * len(axis) + len(grid) ** 2)
    report = non_isometry_witness(grid=20)
    wit = report["witness"]
    s.check("Q_err", abs(wit["Q"] - 0.4705882), "<=", 1e-6)
    s.check("C_err", abs(wit["C"] - 0.4375), "<=", 1e-6)
    s.check("witness_exact", 0.0, "<=", 1e-9)
    s.worst("witness_exact", abs(wit["Q"] - 8.0 / 17.0), abs(wit["C"] - 0.4375))
    s.check("gap", wit["gap"], ">", 0.03)
    s.check("grid_max_gap", report["grid_max_gap"], ">=", wit["gap"] - 1e-12)
    s.check("min_phase_gap", math.inf, ">=", -1e-12)
    s.check("worst_gap_formula", 0.0, "<=", 1e-10)
    s.check("worst_axis", 0.0, "<=", 1e-12)
    s.check("min_offaxis_gap", math.inf, ">", 0.0)
    for name in ("worst_automorphism", "worst_identity", "worst_complex_line"):
        s.check(name, 0.0, "<=", 1e-12)
    for _ in range(n):
        a = float(rng.uniform(0.0, 0.95)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        b = float(rng.uniform(0.0, 0.95)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        gap = _modulus_gap(a, b)
        s.worst("min_phase_gap", gap)
        a2, b2 = abs(a) ** 2, abs(b) ** 2
        formula = a2 * b2 * (1.0 - a2) * (1.0 - b2) / (1.0 + a2 * b2)
        s.worst("worst_gap_formula", abs(gap - formula))
        p, q = smp.random_ball_point(rng, 0.95), smp.random_ball_point(rng, 0.95)
        (c1, c2), (z1, z2) = to_c2(p), to_c2(q)
        dk, delta = kobayashi_distance(p, q), distance_disc(p, q)
        phi = ball_automorphism((c1, c2), (z1, z2))
        s.worst("worst_automorphism", abs(math.atanh(math.hypot(*map(abs, phi))) - dk) / dk)
        sd = math.sinh(delta) ** 2
        rhs = abs(c1 * (z2 - c2) - c2 * (z1 - c1)) ** 2 / (
            (1.0 - p.norm_sq()) * (1.0 - q.norm_sq()))
        s.worst("worst_identity", abs(sd - math.sinh(dk) ** 2 - rhs) / (1.0 + sd))
        lam, mu = (complex(*rng.uniform(-0.7, 0.7, size=2)) for _ in range(2))
        u, v = from_c2((lam * z1, lam * z2)), from_c2((mu * z1, mu * z2))
        s.rel("worst_complex_line", kobayashi_distance(u, v), distance_disc(u, v))
    for t in axis:
        for a, b in ((t, 0.0), (0.0, t)):
            s.worst("worst_axis", abs(_modulus_gap(a, b)))
    for a in grid:
        for b in grid:
            s.worst("min_offaxis_gap", _modulus_gap(a, b))
    return s


def triangle_suite(rng, n: int) -> Suite:
    """The ball distance satisfies the triangle inequality."""
    s = Suite(n_checked=n)
    s.check("worst_slack", 0.0, ">=", -1e-9)
    for _ in range(n):
        a = smp.random_ball_point(rng, 0.95)
        b = smp.random_ball_point(rng, 0.95)
        c = smp.random_ball_point(rng, 0.95)
        s.worst("worst_slack", distance_disc(a, b) + distance_disc(b, c) - distance_disc(a, c))
    return s


def conformal_suite(rng, n: int) -> Suite:
    """The differential agrees with a central difference of apply, and
    J^T J of an induced map is a multiple of the identity."""
    s = Suite(worst_central_difference=1e-8, worst_offscale=1e-4)
    while s.n_checked < n:
        A = normalize(smp.random_invertible_matrix(rng, 1.5))
        q = smp.random_quaternion(rng, 1.5)
        if abs(A.c * q + A.d) < 0.4:
            s.n_skipped += 1
            continue
        D = jacobian(A, q)
        # D is a similarity h -> L h R whatever L and R are, so only this
        # independent route ties it to the map
        h = 1e-6 * (1.0 + abs(q))
        cd = np.array([tuple(apply(A, q + e * h) - apply(A, q - e * h))
                       for e in (ONE, I, J, K)]).T / (2.0 * h)
        s.worst("worst_central_difference", np.max(np.abs(D - cd) / (1.0 + np.max(np.abs(D)))))
        M = D.T @ D
        lam2 = float(np.trace(M)) / 4.0
        s.worst("worst_offscale", np.max(np.abs(M - lam2 * np.eye(4))))
        s.n_checked += 1
    return s


def sp11_suite(rng, n: int) -> Suite:
    """Canonical ball maps are tagged Sp(1,1) and keep the ball."""
    s = Suite(n_checked=n)
    untagged = left = 0
    for _ in range(n):
        M = smp.random_sp11(rng)
        if GroupTag.SP11 not in classify(M, tol=1e-7):
            untagged += 1
        if abs(FLT(M)(smp.random_ball_point(rng))) >= 1.0:
            left += 1
    s.check("untagged", untagged, "<=", 0)
    s.check("left_ball", left, "<=", 0)
    return s


SUITES = {
    "binet": binet_suite,
    "inverse": inverse_suite,
    "homomorphism": homomorphism_suite,
    "cross_ratio": cross_ratio_suite,
    "quadric": quadric_suite,
    "spots": spots_suite,
    "distance": distance_suite,
    "integrated": integrated_suite,
    "cayley": cayley_suite,
    "kobayashi": kobayashi_suite,
    "triangle": triangle_suite,
    "conformal": conformal_suite,
    "sp11": sp11_suite,
}


def run_all(seed: int = 0, iters: int = 200) -> dict:
    rng = smp.make_rng(seed)
    size = max(iters, 0)
    suites = {name: fn(rng, size).report() for name, fn in SUITES.items()}
    return {"ok": all(s["ok"] for s in suites.values()),
            "seed": seed, "iters": iters, "suites": suites}
