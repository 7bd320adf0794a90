"""The workloads: input generation, the timed item, and its checks.

Each workload class generates items from its own seeded stream, runs one
item through the library (`run`, the only timed part), and checks the
item's outputs against the references in refs.py (`verify`, untimed).
Library calls go through `lib`, built by `make_lib`: plain guarded calls
for the end-to-end run, traced calls for the per-layer run.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
import subprocess
import sys
from collections import namedtuple
from functools import partial
from types import SimpleNamespace

import refs
from refs import C_HARD, EPS, qabs, qmul, qn2, qscale, qsub, scale_of
from spans import Raised, guard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# one BLAS thread in every process the benchmark starts
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


def load():
    """Import the library modules the workloads call."""
    from qmobius import cli, crossratio, errors, flt, hypgeo, kobayashi, mat2h, quat
    import qmobius
    if os.path.dirname(os.path.abspath(qmobius.__file__)) != os.path.join(SRC, "qmobius"):
        raise ImportError(f"qmobius imported from {qmobius.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, crossratio=crossratio, errors=errors, flt=flt,
                           hypgeo=hypgeo, kobayashi=kobayashi, mat2h=mat2h, quat=quat)


# -- library calls, plain or traced ---------------------------------------


def _mm_size(args, out):
    n = args[0].shape[0]
    return n, args[0].nbytes + args[1].nbytes + out.nbytes, 240 * n


def _det_size(args, out):
    n = args[0].shape[0]
    return n, args[0].nbytes + out.nbytes, 109 * n


def _sample_size(args, out):
    n = out.shape[0]
    return n, out.nbytes, 61 * n


def _length_size(args, out):
    n = args[0].shape[0]
    return n, args[0].nbytes + 8, 37 * n


def _route(geodesic, ends, cross_ratio, p, q):
    """The cross-ratio route to the distance: the geodesic's two ends,
    the cross-ratio of p, q against them, then half its log."""
    geo = geodesic(p, q)
    if isinstance(geo, Raised):
        return geo
    cr = cross_ratio(p, q, *ends(geo))
    if isinstance(cr, Raised):
        return cr
    return 0.5 * math.log(cr.w)


def make_lib(m, tracer=None):
    """The library functions the workloads call, each wrapped so that an
    exception comes back as Raised; with a tracer each call is a span."""
    def w(name, fn, **kw):
        return guard(fn) if tracer is None else tracer.wrap(name, fn, **kw)

    is_inf = m.flt.is_infinity
    lib = SimpleNamespace(
        matmul=w("mat2h.matmul", operator.matmul),  # the @ operator
        det_h=w("mat2h.det_h", m.mat2h.det_h),
        inverse=w("mat2h.inverse", m.mat2h.inverse),
        classify=w("mat2h.classify", m.mat2h.classify),
        FLT=w("flt.FLT", m.flt.FLT),
        apply=w("flt.apply", m.flt.apply, hit=is_inf),
        distance_disc=w("hypgeo.distance_disc", m.hypgeo.distance_disc),
        distance_halfspace=w("hypgeo.distance_halfspace", m.hypgeo.distance_halfspace),
        cayley=w("hypgeo.cayley", m.hypgeo.cayley),
        geodesic_disc=w("hypgeo.geodesic_disc", m.hypgeo.geodesic_disc),
        geodesic_halfspace=w("hypgeo.geodesic_halfspace", m.hypgeo.geodesic_halfspace),
        cross_ratio=w("crossratio.cross_ratio", m.crossratio.cross_ratio),
        is_concyclic=w("crossratio.is_concyclic", m.crossratio.is_concyclic),
        mat_mul_many=w("mat2h.mat_mul_many", m.mat2h.mat_mul_many, size=_mm_size),
        det_h_many=w("mat2h.det_h_many", m.mat2h.det_h_many, size=_det_size),
        geodesic_sample_rows=w("hypgeo.geodesic_sample_rows",
                               m.hypgeo.geodesic_sample_rows, size=_sample_size),
        integrated_length_disc=w("hypgeo.integrated_length_disc",
                                 m.hypgeo.integrated_length_disc, size=_length_size),
        cli=w("cli.command", run_cli),
        CAYLEY=m.mat2h.CAYLEY,
    )
    lib.route_half = w("hypgeo.cross_ratio_route", partial(
        _route, lib.geodesic_halfspace, operator.attrgetter("e3", "e4"), lib.cross_ratio))
    lib.route_ball = w("hypgeo.cross_ratio_route", partial(
        _route, lib.geodesic_disc, operator.attrgetter("q3", "q4"), lib.cross_ratio))
    return lib


# -- generation helpers (the benchmark's own float arithmetic) --------------


def _unit4(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(t * t for t in v))
        if n > 1e-6:
            return tuple(t / n for t in v)


def _quat(rng, rmax):
    return qscale(_unit4(rng), rng.uniform(0.0, rmax))


def _imag(rng, rmax):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(t * t for t in v))
        if n > 1e-6:
            r = rng.uniform(0.0, rmax) / n
            return (0.0, v[0] * r, v[1] * r, v[2] * r)


def _grid_quat(rng):
    """Components k/32 with |k| <= 40 and modulus at least 1/4: products
    of two such quaternions are exact in floats, so the rank-one matrices
    below are exactly singular."""
    while True:
        q = tuple(rng.randint(-40, 40) / 32.0 for _ in range(4))
        if qabs(q) >= 0.25:
            return q


def _mob_float(M, q):
    a, b, c, d = M
    den = refs.qadd(qmul(c, q), d)
    n2 = qn2(den)
    if n2 == 0.0:
        return None, den
    return qscale(qmul(refs.qadd(qmul(a, q), b), refs.qconj(den)), 1.0 / n2), den


def interior_matrix(rng):
    while True:
        M = tuple(_quat(rng, 2.0) for _ in range(4))
        if refs.det(M) > 0.02 * scale_of(M) ** 2:
            return M


def rank_one_matrix(rng):
    k, c, d = _grid_quat(rng), _grid_quat(rng), _grid_quat(rng)
    return (qmul(k, c), qmul(k, d), c, d)


def near_singular_matrix(rng):
    """Rank-one plus a perturbation of d that sets det_h / scale^2 to a
    log-uniform target in [1e-5, 1e-2]."""
    a, b, c, d = rank_one_matrix(rng)
    target = 10.0 ** rng.uniform(-5.0, -2.0)
    s = scale_of((a, b, c, d))
    e = qscale(_unit4(rng), target * s * s / qabs(a))
    return (a, b, c, refs.qadd(d, e))


def ball_group_matrix(rng):
    """s [[alpha, -alpha q0], [-beta conj(q0), beta]] with s = (1 - |q0|^2)^-1/2,
    a member of the group preserving diag(1, -1)."""
    alpha, beta, q0 = _unit4(rng), _unit4(rng), _quat(rng, 0.9)
    s = 1.0 / math.sqrt(1.0 - qn2(q0))
    return (qscale(alpha, s), qscale(qmul(alpha, q0), -s),
            qscale(qmul(beta, refs.qconj(q0)), -s), qscale(beta, s))


def ball_point(rng, band, rmax=0.9):
    """Interior: radius uniform in [0, rmax].  Band: 1 - |q| log-uniform
    in [1e-12, 1e-3]."""
    while True:
        rad = 1.0 - 10.0 ** rng.uniform(-12.0, -3.0) if band else rng.uniform(0.0, rmax)
        q = qscale(_unit4(rng), rad)
        if qn2(q) < 1.0:
            return q


def half_point(rng, band):
    """Interior: Re q uniform in [0.05, 2].  Band: Re q log-uniform in
    [1e-12, 1e-3]."""
    re = 10.0 ** rng.uniform(-12.0, -3.0) if band else rng.uniform(0.05, 2.0)
    im = _imag(rng, 1.5)
    return (re, im[1], im[2], im[3])


def concyclic_points(rng):
    """Four points of a random circle, at least 0.3 rad apart."""
    c = _quat(rng, 2.0)
    u = _unit4(rng)
    while True:
        v = _unit4(rng)
        dot = sum(s * t for s, t in zip(u, v))
        v = qsub(v, qscale(u, dot))
        if qabs(v) > 1e-3:
            v = qscale(v, 1.0 / qabs(v))
            break
    r = rng.uniform(0.3, 2.0)
    while True:
        th = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
        gaps = [th[i + 1] - th[i] for i in range(3)] + [2.0 * math.pi - th[3] + th[0]]
        if min(gaps) >= 0.3:
            break
    rng.shuffle(th)
    return [refs.qadd(c, refs.qadd(qscale(u, r * math.cos(t)), qscale(v, r * math.sin(t))))
            for t in th]


def _gerr(m, got) -> bool:
    """Whether a call raised the library's GeometryError."""
    return isinstance(got, Raised) and isinstance(got.exc, m.errors.GeometryError)


def _mm_bound(hard, s):
    """Bound on an entry of a computed matrix product whose factors have
    entry scales multiplying to s."""
    return C_HARD * EPS * s if hard else refs.INTERIOR_REL * (1.0 + s)


def _finite_quat(got) -> bool:
    return (isinstance(got, tuple) and len(got) == 4
            and all(isinstance(x, float) and math.isfinite(x) for x in got))


def _qerr(got, want) -> float:
    return qabs(qsub(got, want))


def _merr(got, want) -> float:
    return max(qabs(qsub(g, w)) for g, w in zip(got, want))


# -- maps -------------------------------------------------------------------

MapsItem = namedtuple("MapsItem", "A B probes G hard_a hard_b")


class Maps:
    """One matrix pair (A, B), 8 probe points and one ball-group matrix per
    item.  A is hard in items i % 8 == 3 and B in items i % 8 == 7:
    near-singular and rank-one by turns."""

    name = "maps"
    chunk = 64
    warmup = 32

    def __init__(self, m, seed):
        self.m = m
        self.rng = random.Random(f"maps:{seed}")

    def _mat(self, kind):
        rng = self.rng
        if kind == "near":
            M = near_singular_matrix(rng)
        elif kind == "rank1":
            M = rank_one_matrix(rng)
        else:
            M = interior_matrix(rng)
        return self._lib_mat(M)

    def _lib_mat(self, M):
        Q = self.m.quat.Quaternion
        return self.m.mat2h.Mat2H(*(Q(*map(float, e)) for e in M))

    def _probes(self, A, B, filtered):
        Q = self.m.quat.Quaternion
        sA, sB = scale_of(A), scale_of(B)
        out = []
        for _ in range(200 * 8):
            if len(out) == 8:
                break
            q = _quat(self.rng, 2.0)
            if filtered:
                w, den = _mob_float(B, q)
                if w is None or qabs(den) < 0.1 * sB:
                    continue
                _, den = _mob_float(A, w)
                if qabs(den) < 0.1 * sA:
                    continue
            out.append(Q(*q))
        while len(out) < 8:
            out.append(Q(*_quat(self.rng, 2.0)))
        return out

    def generate(self, start, n):
        items = []
        for i in range(start, start + n):
            kind = "near" if (i // 8) % 2 == 0 else "rank1"
            hard_a = kind if i % 8 == 3 else ""
            hard_b = kind if i % 8 == 7 else ""
            A, B = self._mat(hard_a), self._mat(hard_b)
            probes = self._probes(A, B, filtered=not (hard_a or hard_b) or kind == "near")
            G = self._lib_mat(ball_group_matrix(self.rng))
            items.append(MapsItem(A, B, probes, G, hard_a, hard_b))
        return items

    @staticmethod
    def run(lib, it):
        A, B = it.A, it.B
        Ai = lib.inverse(A)
        P = None if isinstance(Ai, Raised) else lib.matmul(A, Ai)
        AB = lib.matmul(A, B)
        dA, dB, dAB = lib.det_h(A), lib.det_h(B), lib.det_h(AB)
        fa, fb, fab = lib.FLT(A), lib.FLT(B), lib.FLT(AB)
        apply = lib.apply
        comp = staged = None
        if not isinstance(fab, Raised):
            comp = [apply(fab, q) for q in it.probes]
        if not (isinstance(fa, Raised) or isinstance(fb, Raised)):
            staged = [apply(fa, apply(fb, q)) for q in it.probes]
        tags = lib.classify(it.G)
        return Ai, P, AB, dA, dB, dAB, fa, fb, fab, comp, staged, tags

    def verify(self, it, out, tally):
        Ai, P, AB, dA, dB, dAB, fa, fb, fab, comp, staged, tags = out
        A, B = it.A, it.B
        ha, hb = bool(it.hard_a), bool(it.hard_b)
        sA, sB = scale_of(A), scale_of(B)
        detA, detB = refs.det(A), refs.det(B)
        sing_a, sing_b = detA == 0.0, detB == 0.0

        # inverse: Singular is correct exactly on singular input
        if sing_a:
            tally.check("mat2h.inverse", _gerr(self.m, Ai), True, "inverse of a singular matrix")
        else:
            ok = not isinstance(Ai, Raised)
            if ok:
                res = refs.residual(A, Ai)
                bound = C_HARD * EPS * sA * sA / detA if ha else refs.INTERIOR_RESIDUAL
                ok = res <= bound
            tally.check("mat2h.inverse", ok, ha, f"inverse residual, Ai={Ai!r}")
            if ok:
                tally.check("mat2h.matmul", not isinstance(P, Raised)
                            and _merr(P, refs.matmul(A, Ai)) <= _mm_bound(ha, sA * scale_of(Ai)),
                            ha, "A @ inverse(A)")

        hab = ha or hb
        tally.check("mat2h.matmul", not isinstance(AB, Raised)
                    and _merr(AB, refs.matmul(A, B)) <= _mm_bound(hab, sA * sB), hab, "A @ B")

        for got, want, s, hard in ((dA, detA, sA, ha), (dB, detB, sB, hb)):
            bound = C_HARD * EPS * s * s if hard else refs.INTERIOR_REL * (1.0 + want)
            tally.check("mat2h.det_h", not isinstance(got, Raised)
                        and refs.close(got, want, bound), hard, f"det_h {got} vs {want}")
        want = detA * detB
        ok = not isinstance(dAB, Raised) and not isinstance(AB, Raised)
        if ok:
            if hab:
                bound = bound2 = C_HARD * EPS * (sA * sB) ** 2
            else:
                bound = refs.INTERIOR_REL * (1.0 + want)
                bound2 = refs.INTERIOR_REL * (1.0 + dA * dB)
            ok = refs.close(dAB, want, bound) and refs.close(dAB, dA * dB, bound2)
        tally.check("mat2h.det_h", ok, hab, f"det_h(AB) {dAB} vs {want}")

        for got, sing, hard in ((fa, sing_a, ha), (fb, sing_b, hb), (fab, sing_a or sing_b, hab)):
            ok = _gerr(self.m, got) if sing else not isinstance(got, Raised)
            tally.check("flt.FLT", ok, hard, f"FLT raised={got!r}" if not ok else "")

        self._verify_apply(it, comp, staged, tally, hab)

        GT = self.m.mat2h.GroupTag
        tally.check("mat2h.classify", not isinstance(tags, Raised)
                    and {GT.GL2H, GT.SL2H, GT.SP11} <= tags, False, f"classify {tags!r}")

    def _verify_apply(self, it, comp, staged, tally, hard):
        if comp is None and staged is None:
            return
        A, B = it.A, it.B
        mA = [qabs(e) for e in A]
        mB = [qabs(e) for e in B]
        # entry moduli of A B as the product of the modulus matrices
        mAB = (mA[0] * mB[0] + mA[1] * mB[2], mA[0] * mB[1] + mA[1] * mB[3],
               mA[2] * mB[0] + mA[3] * mB[2], mA[2] * mB[1] + mA[3] * mB[3])
        AB = refs.matmul(A, B)
        detA = refs.det(A)
        for j, q in enumerate(it.probes):
            want = refs.mobius2(A, B, q)
            if want is None:
                continue
            size = qabs(want)
            if hard:
                num = refs.qadd(qmul(AB[0], q), AB[1])
                den = refs.qadd(qmul(AB[2], q), AB[3])
                k_comp = refs.kappa_mobius(mAB, q, num, den)
                w = refs.mobius(B, q)
                num = refs.qadd(qmul(B[0], q), B[1])
                den = refs.qadd(qmul(B[2], q), B[3])
                k_b = refs.kappa_mobius(mB, q, num, den)
                den_a = refs.qadd(qmul(A[2], w), A[3])
                num_a = refs.qadd(qmul(A[0], w), A[1])
                k_stage = (k_b * detA * qabs(w) / max(qn2(den_a) * size, 1e-300)
                           + refs.kappa_mobius(mA, w, num_a, den_a))
                bounds = (C_HARD * EPS * k_comp * size, C_HARD * EPS * k_stage * size)
            else:
                bounds = (1e-8 * (1.0 + size),) * 2
            for got, bound in ((comp and comp[j], bounds[0]), (staged and staged[j], bounds[1])):
                if got is None:
                    continue
                tally.check("flt.apply", _finite_quat(got) and _qerr(got, want) <= bound,
                            hard, f"apply {got!r} vs {want}")

    def quats(self, items):
        return [e for it in items for M in (it.A, it.B) for e in M] + \
               [q for it in items for q in it.probes]


# -- geometry ---------------------------------------------------------------

GeoItem = namedtuple("GeoItem", "p q r u v circle pole band route")


class Geometry:
    """A ball triple, a half-space pair, four concyclic points and one
    Cayley pole probe per item.  Items i % 8 == 5 put every ball and
    half-space point in the boundary band; items i % 8 == 2 also take the
    cross-ratio route in both models."""

    name = "geometry"
    chunk = 64
    warmup = 32

    def __init__(self, m, seed):
        self.m = m
        self.rng = random.Random(f"geometry:{seed}")

    def generate(self, start, n):
        Q = self.m.quat.Quaternion
        rng = self.rng
        items = []
        for i in range(start, start + n):
            band = i % 8 == 5
            p, q, r = (Q(*ball_point(rng, band)) for _ in range(3))
            u, v = (Q(*half_point(rng, band)) for _ in range(2))
            circle = [Q(*c) for c in concyclic_points(rng)]
            pole = self.m.quat.ONE if i % 2 == 0 else self.m.flt.INFINITY
            items.append(GeoItem(p, q, r, u, v, circle, pole, band, i % 8 == 2))
        return items

    @staticmethod
    def run(lib, it):
        p, q = it.p, it.q
        d_pq = lib.distance_disc(p, q)
        d_qr = lib.distance_disc(q, it.r)
        d_pr = lib.distance_disc(p, it.r)
        d_uv = lib.distance_halfspace(it.u, it.v)
        cp, cq = lib.cayley(p), lib.cayley(q)
        d_iso = lib.distance_halfspace(cp, cq)
        pole = lib.apply(lib.CAYLEY, it.pole)
        cr = lib.cross_ratio(*it.circle)
        conc = lib.is_concyclic(*it.circle)
        rh = rb = None
        if it.route:
            rh = lib.route_half(it.u, it.v)
            rb = lib.route_ball(p, q)
        return d_pq, d_qr, d_pr, d_uv, cp, cq, d_iso, pole, cr, conc, rh, rb

    def verify(self, it, out, tally):
        d_pq, d_qr, d_pr, d_uv, cp, cq, d_iso, pole, cr, conc, rh, rb = out
        band = it.band
        p, q, r, u, v = it.p, it.q, it.r, it.u, it.v
        want = {}
        for name, got, a, b in (("pq", d_pq, p, q), ("qr", d_qr, q, r), ("pr", d_pr, p, r)):
            D = want[name] = refs.dist_ball(a, b)
            bound = refs.dist_bound(D, refs.kappa_ball(a, b, D), band)
            ok = isinstance(got, float) and refs.close(got, D, bound)
            if ok and name == "pr" and isinstance(d_pq, float) and isinstance(d_qr, float):
                slack_bound = refs.dist_bound(
                    D, sum(refs.kappa_ball(x, y, want[k]) for x, y, k in
                           ((p, q, "pq"), (q, r, "qr"), (p, r, "pr"))), band)
                ok = d_pq + d_qr - d_pr >= -slack_bound
            tally.check("hypgeo.distance_disc", ok, band, f"distance_disc {got!r} vs {D}")

        D_uv = refs.dist_half(u, v)
        bound = refs.dist_bound(D_uv, refs.kappa_half(u, v, D_uv), band)
        tally.check("hypgeo.distance_halfspace", isinstance(d_uv, float)
                    and refs.close(d_uv, D_uv, bound), band, f"distance_halfspace {d_uv!r} vs {D_uv}")

        C = self.m.mat2h.CAYLEY
        k_cay = []
        for got, x in ((cp, p), (cq, q)):
            want_c = refs.mobius(C, x)
            one = (1.0, 0.0, 0.0, 0.0)
            k = refs.kappa_mobius((1.0, 1.0, 1.0, 1.0), x, refs.qadd(x, one), qsub(one, x))
            k_cay.append(k)
            size = qabs(want_c)
            bound = C_HARD * EPS * k * size if band else refs.INTERIOR_REL * (1.0 + size)
            tally.check("hypgeo.cayley", _finite_quat(got) and _qerr(got, want_c) <= bound,
                        band, f"cayley {got!r} vs {want_c}")
        if _finite_quat(cp) and _finite_quat(cq):
            D = want["pq"]
            kappa = (refs.kappa_ball(p, q, D)
                     + refs.kappa_half(cp, cq, D) * (1.0 + k_cay[0] + k_cay[1]))
            tally.check("hypgeo.distance_halfspace", isinstance(d_iso, float)
                        and refs.close(d_iso, D, refs.dist_bound(D, kappa, band)), band,
                        f"Cayley isometry {d_iso!r} vs {D}")

        if it.pole is self.m.flt.INFINITY:
            ok = _finite_quat(pole) and tuple(pole) == (-1.0, 0.0, 0.0, 0.0)
        else:
            ok = pole is self.m.flt.INFINITY
        tally.check("flt.apply", ok, False, f"Cayley at {it.pole!r} gave {pole!r}")

        want_cr = refs.cross_ratio(*it.circle)
        tally.check("crossratio.cross_ratio", _finite_quat(cr) and _qerr(cr, want_cr)
                    <= refs.INTERIOR_REL * (1.0 + qabs(want_cr)), False,
                    f"cross_ratio {cr!r} vs {want_cr}")
        tally.check("crossratio.is_concyclic", conc is True, False, f"is_concyclic {conc!r}")

        if it.route:
            for layer, got, D in (("hypgeo.geodesic_halfspace", rh, D_uv),
                                  ("hypgeo.geodesic_disc", rb, want["pq"])):
                tally.check(layer, isinstance(got, float) and refs.close(
                    got, D, refs.INTERIOR_REL * (1.0 + D)), False, f"route {got!r} vs {D}")

    def quats(self, items):
        return [x for it in items for x in (it.p, it.q, it.r, it.u, it.v, *it.circle)]


# -- bulk -------------------------------------------------------------------

BULK_ROWS = 10_000
BULK_POOL = 4
BULK_SAMPLED = 16


def _qmul_rows(np, p, q):
    w1, x1, y1, z1 = np.moveaxis(p, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q, -1, 0)
    return np.stack([w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2], axis=-1)


def _row_det_rel(np, M):
    """det_h / scale^2 of each row, by the benchmark's own Schur form."""
    a, b, c, d = (M[:, k, :] for k in range(4))
    na = (a * a).sum(axis=1)
    x = d * na[:, None] - _qmul_rows(np, _qmul_rows(np, c, a * [1, -1, -1, -1]), b)
    det = np.sqrt((x * x).sum(axis=1) / na)
    return det / (np.sqrt((M * M).sum(axis=2)).max(axis=1) ** 2)


class Bulk:
    """One batch of 10,000 matrix pairs plus one 10,000-sample geodesic
    per item, cycling through a pool of four pre-generated batches.  Rows
    i % 8 == 3 of A and i % 8 == 7 of B are hard, near-singular and
    rank-one by turns, as in maps."""

    name = "bulk"
    chunk = 4
    warmup = 2

    def __init__(self, m, seed):
        import numpy as np
        self.m = m
        self.np = np
        self.rng = np.random.default_rng(seed)
        self.pyrng = random.Random(f"bulk:{seed}")
        self.pool = None

    def _interior(self, n):
        np, rng = self.np, self.rng
        M = rng.uniform(-5.0, 5.0, size=(n, 4, 4))
        while True:
            bad = np.flatnonzero(~(_row_det_rel(np, M) > 0.02))
            if not len(bad):
                return M
            M[bad] = rng.uniform(-5.0, 5.0, size=(len(bad), 4, 4))

    def _hard(self, rows, kind):
        # scaled by 4, a power of two, so rank-one rows stay exactly singular
        make = rank_one_matrix if kind == "rank1" else near_singular_matrix
        return self.np.array([[qscale(e, 4.0) for e in make(self.pyrng)] for _ in rows])

    def _batch(self):
        np = self.np
        n = BULK_ROWS
        A, B = self._interior(n), self._interior(n)
        idx = np.arange(n)
        hard_a, hard_b = idx % 8 == 3, idx % 8 == 7
        for M, mask in ((A, hard_a), (B, hard_b)):
            rows = np.flatnonzero(mask)
            for kind, sel in (("near", rows[(rows // 8) % 2 == 0]),
                              ("rank1", rows[(rows // 8) % 2 == 1])):
                M[sel] = self._hard(sel, kind)
        hard = hard_a | hard_b
        sA = np.sqrt((A * A).sum(axis=2)).max(axis=1)
        sB = np.sqrt((B * B).sum(axis=2)).max(axis=1)
        Q = self.m.quat.Quaternion
        while True:
            p = Q(*ball_point(self.pyrng, False, 0.85))
            q = Q(*ball_point(self.pyrng, False, 0.85))
            D = refs.dist_ball(p, q)
            if D >= 0.05:
                break
        sampled = [8 * int(self.rng.integers(n // 8)) + j % 8 for j in range(BULK_SAMPLED)]
        checks = []
        for i in sampled:
            Ai = tuple(tuple(map(float, e)) for e in A[i])
            Bi = tuple(tuple(map(float, e)) for e in B[i])
            checks.append((i, refs.det(Ai), refs.matmul(Ai, Bi), bool(hard_a[i]),
                           bool(hard[i])))
        return SimpleNamespace(A=A, B=B, hard=hard, sAsB2=(sA * sB) ** 2, sA=sA, sB=sB,
                               p=p, q=q, D=D, checks=checks)

    def generate(self, start, n):
        if self.pool is None:
            self.pool = [self._batch() for _ in range(BULK_POOL)]
        return [self.pool[i % BULK_POOL] for i in range(start, start + n)]

    @staticmethod
    def run(lib, b):
        P = lib.mat_mul_many(b.A, b.B)
        dA, dB, dP = lib.det_h_many(b.A), lib.det_h_many(b.B), lib.det_h_many(P)
        path = lib.geodesic_sample_rows(b.p, b.q, BULK_ROWS)
        return P, dA, dB, dP, path, lib.integrated_length_disc(path)

    def verify(self, b, out, tally):
        np = self.np
        P, dA, dB, dP, path, L = out
        n = BULK_ROWS
        n_hard = int(b.hard.sum())
        if any(isinstance(x, Raised) for x in (dA, dB, dP)):
            tally.count("mat2h.det_h_many", n_hard, n_hard, True)
            tally.count("mat2h.det_h_many", n - n_hard, n - n_hard, False, "det_h_many raised")
        else:
            rhs = dA * dB
            bound = np.where(b.hard, C_HARD * EPS * b.sAsB2, refs.INTERIOR_REL * (1.0 + rhs))
            bad = ~(np.abs(dP - rhs) <= bound)
            tally.count("mat2h.det_h_many", n_hard, int((bad & b.hard).sum()), True)
            tally.count("mat2h.det_h_many", n - n_hard, int((bad & ~b.hard).sum()), False,
                        "Binet on interior rows")

        Mat2H, Q = self.m.mat2h.Mat2H, self.m.quat.Quaternion
        for i, detA, prod, hard_a, hard in b.checks:
            sA, sB = float(b.sA[i]), float(b.sB[i])
            if not isinstance(dA, Raised):
                bound = C_HARD * EPS * sA * sA if hard_a else refs.INTERIOR_REL * (1.0 + detA)
                tally.check("mat2h.det_h_many", refs.close(float(dA[i]), detA, bound), hard_a,
                            f"det_h_many row {i}")
                scalar = self.m.mat2h.det_h(Mat2H(*(Q(*map(float, e)) for e in b.A[i])))
                tally.note_worst("kernels.max_rel_err_vs_scalar",
                                 abs(float(dA[i]) - scalar) / (1.0 + scalar))
            ok = not isinstance(P, Raised)
            if ok:
                got = tuple(tuple(map(float, e)) for e in P[i])
                ok = _merr(got, prod) <= _mm_bound(hard, sA * sB)
                As = Mat2H(*(Q(*map(float, e)) for e in b.A[i]))
                Bs = Mat2H(*(Q(*map(float, e)) for e in b.B[i]))
                tally.note_worst("kernels.max_rel_err_vs_scalar",
                                 _merr(got, As @ Bs) / (1.0 + sA * sB))
            tally.check("mat2h.mat_mul_many", ok, hard, f"mat_mul_many row {i}")

        ok = (isinstance(path, np.ndarray) and path.shape == (n, 4)
              and tuple(path[0]) == tuple(b.p) and tuple(path[-1]) == tuple(b.q)
              and bool(((path * path).sum(axis=1) < 1.0).all()))
        tally.check("hypgeo.geodesic_sample_rows", ok, False, "geodesic_sample_rows")
        tally.check("hypgeo.integrated_length_disc", isinstance(L, float)
                    and abs(L - b.D) <= 1e-5 * b.D, False, f"length {L!r} vs {b.D}")

    def quats(self, items):
        b = items[0]
        Q = self.m.quat.Quaternion
        return [Q(*map(float, e)) for M in b.A[:64] for e in M]


# -- cli_cold ---------------------------------------------------------------

CLI_KINDS = ("det", "inv", "normalize", "classify", "apply", "decompose", "canonical",
             "cross-ratio", "concyclic", "distance --disc", "distance --halfspace",
             "geodesic --disc", "cayley", "metric --disc", "kobayashi-witness")
HARD_KINDS = ("boundary", "huge", "nan")
GEODESIC_SAMPLES = 8
WITNESS_GRID = 3
# fixed boundary operands, the ROADMAP's examples: whether such a call
# crashes can hang on one rounding, so a random one would make
# cli.contract_violations jump from seed to seed
CLI_BALL_EDGE = 1.0 - 1e-12

CliItem = namedtuple("CliItem", "kind argv operands hard")


def child_env():
    """Environment of every process the benchmark starts: one BLAS thread,
    qmobius from src/, and bytecode caching on, so that a cold process
    imports cached bytecode as an installed package does."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv):
    """Run one cold CLI process and wait for it; returns (exit code, stdout)."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    return proc.returncode, proc.stdout.decode("utf-8", "replace")


def _r7(x):
    return float(f"{x:.7g}") + 0.0


def same7(got, want) -> bool:
    """Structural equality with numbers compared at 7 significant digits."""
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want and type(got) is type(want)
    if isinstance(want, (int, float)):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and _r7(got) == _r7(want))
    if isinstance(want, (list, tuple)):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same7(g, w) for g, w in zip(got, want)))
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(same7(got[k], want[k]) for k in want))
    return False


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_finite(v) for v in obj)
    return True


def _no_constants(name):
    raise ValueError(f"non-finite JSON constant {name}")


class CliCold:
    """One cold `python -m qmobius.cli` process per item.  Items rotate
    through 15 invocation kinds (the 14 subcommands other than selftest,
    with distance in both models); items i % 16 == 15 take a hard operand
    (a boundary point, entries of 1e200, or NaN, by turns)."""

    name = "cli_cold"
    chunk = 32  # two hard operands a chunk
    warmup = 2

    def __init__(self, m, seed):
        self.m = m
        self.rng = random.Random(f"cli_cold:{seed}")

    def _operands(self, kind, hard):
        rng = self.rng
        mat = lambda: [list(e) for e in interior_matrix(rng)]
        ball = lambda: list(ball_point(rng, False))
        if kind in ("det", "inv", "normalize", "classify", "decompose"):
            ops = [mat()]
        elif kind == "canonical":
            ops = [[list(e) for e in ball_group_matrix(rng)]]
        elif kind == "apply":
            ops = [mat(), list(_quat(rng, 2.0))]
        elif kind == "cross-ratio":
            ops = [list(_quat(rng, 2.0)) for _ in range(4)]
        elif kind == "concyclic":
            ops = [list(c) for c in concyclic_points(rng)]
        elif kind == "distance --halfspace":
            ops = [list(half_point(rng, False)) for _ in range(2)]
        elif kind in ("distance --disc", "geodesic --disc"):
            ops = [ball(), ball()]
        elif kind == "cayley":
            ops = [ball()]
        elif kind == "metric --disc":
            ops = [ball(), list(_quat(rng, 1.0))]
        else:
            ops = []
        if hard == "boundary":
            if kind in ("det", "inv", "normalize", "classify", "decompose", "canonical", "apply"):
                ops[0] = [list(e) for e in rank_one_matrix(rng)]
            elif kind in ("distance --disc", "geodesic --disc", "cayley", "metric --disc"):
                ops[0] = [CLI_BALL_EDGE, 0.0, 0.0, 0.0]
                if kind in ("distance --disc", "geodesic --disc"):
                    ops[1] = [-CLI_BALL_EDGE, 0.0, 0.0, 0.0]
            elif kind == "distance --halfspace":
                ops = [[1e-13, 0.5, 0.0, 0.0], [1e-12, -0.5, 0.0, 0.0]]
            elif kind in ("cross-ratio", "concyclic"):
                ops[3] = "inf"
        elif hard == "huge" and ops:
            ops[0] = json.loads(json.dumps(ops[0]), parse_float=lambda s: float(s) * 1e200)
        elif hard == "nan" and ops:
            first = ops[0][0] if isinstance(ops[0][0], list) else ops[0]
            first[0] = math.nan
        return ops

    def _argv(self, kind, ops, hard):
        words = kind.split()
        if kind == "kobayashi-witness":
            grid = 0 if hard == "boundary" else WITNESS_GRID
            words += ["--grid", str(grid)]
        args = [json.dumps(o) for o in ops]
        if kind == "geodesic --disc":
            args += ["--samples", str(GEODESIC_SAMPLES)]
        return [sys.executable, "-m", "qmobius.cli", *words, *args]

    def generate(self, start, n):
        items = []
        for i in range(start, start + n):
            kind = CLI_KINDS[i % len(CLI_KINDS)]
            hard = HARD_KINDS[(i // 16) % 3] if i % 16 == 15 else ""
            ops = self._operands(kind, hard)
            items.append(CliItem(kind, self._argv(kind, ops, hard), ops, hard))
        return items

    @staticmethod
    def run(lib, it):
        return lib.cli(it.argv)

    def expected(self, it):
        """The in-process library result for the invocation: ("value",
        payload), ("error", GeometryError name) or ("bad", reason) when
        the library returns a non-finite value or raises something other
        than a GeometryError."""
        m = self.m
        Mat2H, Q = m.mat2h.Mat2H, m.quat.Quaternion
        ext = m.flt.ext_from_json
        ops = it.operands
        kind = it.kind
        try:
            if kind in ("det", "inv", "normalize", "classify", "decompose", "canonical", "apply"):
                M = Mat2H.from_json(ops[0])
            if kind == "det":
                out = {"det": m.mat2h.det_h(M)}
            elif kind == "inv":
                out = {"matrix": m.mat2h.inverse(M).to_json()}
            elif kind == "normalize":
                out = {"matrix": m.mat2h.normalize(M).to_json()}
            elif kind == "classify":
                out = {"tags": sorted(t.value for t in m.mat2h.classify(M, None))}
            elif kind == "apply":
                out = {"result": m.flt.ext_to_json(m.flt.apply(M, ext(ops[1])))}
            elif kind == "decompose":
                out = {"generators": [m.flt.generator_to_json(g) for g in
                                      m.flt.decompose_generators(m.flt.FLT(M))]}
            elif kind == "canonical":
                g = m.flt.to_canonical_disc(M, None)
                out = {"alpha": g.alpha.to_json(), "beta": g.beta.to_json(),
                       "q0": g.q0.to_json()}
            elif kind == "cross-ratio":
                out = m.crossratio.cross_ratio(*map(ext, ops), None).to_json()
            elif kind == "concyclic":
                pts = [ext(o) for o in ops]
                out = {"concyclic": m.crossratio.is_concyclic(*pts, tol=None),
                       "cross_ratio": m.crossratio.cross_ratio(*pts).to_json()}
            elif kind == "distance --disc":
                out = {"distance": m.hypgeo.distance_disc(*(Q.from_json(o) for o in ops))}
            elif kind == "distance --halfspace":
                out = {"distance": m.hypgeo.distance_halfspace(*(Q.from_json(o) for o in ops))}
            elif kind == "geodesic --disc":
                q1, q2 = (Q.from_json(o) for o in ops)
                geo = m.hypgeo.geodesic_disc(q1, q2)
                rows = m.hypgeo.geodesic_sample_rows(q1, q2, GEODESIC_SAMPLES)
                out = {"kind": geo.kind, "ends": [m.flt.ext_to_json(geo.q3),
                                                  m.flt.ext_to_json(geo.q4)],
                       "samples": rows.tolist()}
            elif kind == "cayley":
                out = {"result": m.flt.ext_to_json(m.hypgeo.cayley(ext(ops[0])))}
            elif kind == "metric --disc":
                out = {"metric": m.hypgeo.metric_disc(*(Q.from_json(o) for o in ops))}
            else:
                grid = 0 if it.hard == "boundary" else WITNESS_GRID
                out = m.kobayashi.non_isometry_witness(grid=grid)
        except m.errors.GeometryError as exc:
            return "error", type(exc).__name__
        except Exception as exc:
            return "bad", f"library raised {type(exc).__name__}: {exc}"
        if not _finite(out):
            return "bad", "library returned a non-finite value"
        return "value", out

    def verify(self, it, out, tally):
        if isinstance(out, Raised):
            tally.check("cli", False, bool(it.hard), f"could not run {it.argv}: {out!r}")
            return
        rc, stdout = out
        nonfinite_in = "NaN" in " ".join(it.argv)
        ok = rc in (0, 1, 2)
        if ok:
            try:
                doc = json.loads(stdout, parse_constant=_no_constants)
            except ValueError:
                ok = False
        if ok:
            how, want = self.expected(it)
            is_err = isinstance(doc, dict) and "error" in doc
            if how == "value":
                ok = rc == 0 and same7(doc, want)
            elif how == "error":
                ok = (is_err and rc == 1 and doc["error"] == want) or \
                     (is_err and rc == 2 and nonfinite_in)
            else:
                ok = is_err and (rc == 1 or (rc == 2 and nonfinite_in))
        tally.check("cli", ok, bool(it.hard),
                    f"{it.kind} rc={rc} stdout={stdout[:120]!r}")

    def quats(self, items):
        out = []
        Q = self.m.quat.Quaternion

        def walk(o):
            if isinstance(o, list) and len(o) == 4 and all(isinstance(x, float) for x in o):
                if all(math.isfinite(x) for x in o):
                    out.append(Q(*o))
            elif isinstance(o, list):
                for x in o:
                    walk(x)
        for it in items:
            walk(it.operands)
        return out


# the timed workloads; cold CLI processes are too much at the mercy of
# load from outside the benchmark to be timed against a bound, so
# cli_cold runs in the traced run only
WORKLOADS = {w.name: w for w in (Maps, Geometry, Bulk)}
TRACED = {**WORKLOADS, CliCold.name: CliCold}
