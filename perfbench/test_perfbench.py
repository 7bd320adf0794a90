"""The benchmark's own checks.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import refs  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import Raised, Tally, Tracer, guard, self_times  # noqa: E402

M = W.load()
Q = M.quat.Quaternion


def _mat(t):
    return M.mat2h.Mat2H(*(Q(*e) for e in t))


def _rel(got, want):
    return abs(got - want) / (1.0 + abs(want))


def test_references_agree_with_library_on_interior_inputs():
    rng = random.Random(11)
    worst = {}

    def note(key, err):
        worst[key] = max(worst.get(key, 0.0), err)
    for _ in range(300):
        A, B = _mat(W.interior_matrix(rng)), _mat(W.interior_matrix(rng))
        note("det", _rel(refs.det(A), M.mat2h.det_h(A)))
        note("matmul", refs.qabs(refs.qsub(refs.matmul(A, B)[1], (A @ B).b)))
        q = Q(*W._quat(rng, 2.0))
        want = M.flt.apply(A, q)
        if abs(A.c * q + A.d) > 0.1 * A.entry_scale():
            note("mobius", refs.qabs(refs.qsub(refs.mobius(A, q), want)) / (1.0 + abs(want)))
        p, r = Q(*W.ball_point(rng, False)), Q(*W.ball_point(rng, False))
        note("ball", _rel(refs.dist_ball(p, r), M.hypgeo.distance_disc(p, r)))
        u, v = Q(*W.half_point(rng, False)), Q(*W.half_point(rng, False))
        note("half", _rel(refs.dist_half(u, v), M.hypgeo.distance_halfspace(u, v)))
        pts = [Q(*c) for c in W.concyclic_points(rng)]
        cr = M.crossratio.cross_ratio(*pts)
        note("cross_ratio", refs.qabs(refs.qsub(refs.cross_ratio(*pts), cr)) / (1.0 + abs(cr)))
    assert max(worst.values()) <= 1e-12, worst


def test_raising_op_is_counted_and_does_not_abort_the_run():
    # a library function that raises on every call
    lib = W.make_lib(M)

    def broken(*args):
        raise ValueError("broken")
    lib.det_h = guard(broken)
    wl = W.Maps(M, 0)
    tally = Tally()
    lat, _ = run.measure(wl, lib, 0.0, tally, 0, min_items=wl.chunk)
    assert len(lat) == wl.chunk
    assert tally.failed["mat2h.det_h"] + tally.hard_missed["mat2h.det_h"] == \
        tally.attempted["mat2h.det_h"] == 3 * wl.chunk
    assert tally.failed["mat2h.det_h"] > 0  # interior ops that raise are failures
    assert tally.attempted["mat2h.classify"] == wl.chunk  # later ops still ran

    # the library's own ValueError near |q| = 1 (math domain error)
    lib = W.make_lib(M)
    p = Q(1.0 - 1e-12, 0.0, 0.0, 0.0)
    q = Q(-1.0 + 1e-12, 0.0, 0.0, 0.0)
    assert isinstance(lib.distance_disc(p, q), Raised)
    item = W.GeoItem(p, q, Q(0.1, 0.2, 0.0, 0.0), Q(1.0, 0.0, 0.0, 0.0),
                     Q(0.5, 0.3, 0.0, 0.0), [Q(*c) for c in W.concyclic_points(random.Random(1))],
                     M.quat.ONE, True, False)
    geo = W.Geometry(M, 0)
    tally = Tally()
    geo.verify(item, geo.run(lib, item), tally)
    assert tally.hard_missed["hypgeo.distance_disc"] >= 1
    assert tally.total_failed == 0  # a hard-slice miss is no failure: the run stays correct
    assert tally.attempted["crossratio.is_concyclic"] == 1


def test_self_time_of_nested_spans():
    spans = [(1, 0, "child", 10, 30), (3, 1, "grandchild", 12, 20),
             (2, 0, "child", 40, 45), (0, None, "parent", 0, 100),
             (5, 4, "a", 10, 30), (6, 4, "b", 20, 40), (4, None, "overlap", 0, 50)]
    assert self_times(spans) == {0: 75, 1: 12, 2: 5, 3: 8, 4: 20, 5: 20, 6: 20}

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    tracer.fold()
    st = tracer.stats
    assert st["inner"].calls == 2 and st["outer"].calls == 1
    assert st["outer"].self_ns == st["outer"].busy_ns - st["inner"].busy_ns
    assert st["inner"].self_ns == st["inner"].busy_ns


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == run.END_TO_END
    assert [(e["name"], e["unit"], e["better"]) for e in spec["per_layer"]] == \
        run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
