"""Command line interface.

Each subcommand reads its operands as JSON literals, prints exactly one
JSON document (or CSV with geodesic --csv) on stdout and exits 0 on
success, 1 on a domain error, 2 on a parse error.  Floats are rounded
to 7 significant digits and keys keep a fixed order, so output is
byte-stable for fixed inputs, tolerance and seed.

Environment variables QMOBIUS_TOL and QMOBIUS_SEED supply defaults for
the --tol and --seed flags; either is checked as the flag would be.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import GeometryError, NonFiniteResult
from .crossratio import cross_ratio, is_concyclic
from .flt import (FLT, apply, decompose_generators, ext_from_json, ext_to_json,
                  generator_to_json, to_canonical_disc)
from .hypgeo import (cayley, cayley_inv, distance_disc, distance_halfspace,
                     geodesic_disc, geodesic_halfspace, geodesic_sample_halfspace,
                     geodesic_sample_rows, metric_disc, metric_halfspace)
from .kobayashi import non_isometry_witness
from .mat2h import Mat2H, classify, det_h, inverse, normalize
from .quat import Quaternion


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


def _round7(x: float):
    v = float(f"{x:.7g}") + 0.0
    return int(v) if v == int(v) and abs(v) < 1e15 else v


def _clean(obj):
    """Round every float in a JSON-like structure to 7 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteResult(f"result {obj} is not a finite float")
        return _round7(obj)
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _emit(payload) -> None:
    print(json.dumps(_clean(payload)))


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _ParseError(f"non-finite operand {text}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


def _parse(text: str, from_json):
    """from_json of the JSON literal text; NaN, Infinity, numbers beyond
    float range and whatever from_json refuses are parse errors."""
    try:
        data = json.loads(text, parse_constant=_finite_number,
                          parse_float=_finite_number, parse_int=_finite_number)
    except json.JSONDecodeError as exc:
        raise _ParseError(f"invalid JSON operand {text!r}: {exc}") from exc
    try:
        return from_json(data)
    except (ValueError, TypeError) as exc:
        raise _ParseError(str(exc)) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="qmobius", description=__doc__)
    # string defaults pass through type=, so bad environment values are parse errors
    parser.add_argument("--tol", type=_tolerance,
                        default=os.environ.get("QMOBIUS_TOL") or None,
                        help="comparison tolerance of classify, canonical, "
                             "cross-ratio, concyclic and geodesic")
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("QMOBIUS_SEED") or 0,
                        help="seed for randomized subcommands")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, *operands in (
            ("det", "Dieudonne determinant of a matrix", "mat"),
            ("inv", "matrix inverse", "mat"),
            ("normalize", "scale a matrix to det 1", "mat"),
            ("classify", "group membership tags", "mat"),
            ("apply", "evaluate the induced map at a point", "mat", "point"),
            ("decompose", "factor a map into generators", "mat"),
            ("canonical", "canonical ball-map parameters", "mat"),
            ("cross-ratio", "cross-ratio of four points", "q1", "q2", "q3", "q4"),
            ("concyclic", "do four points share a circle", "q1", "q2", "q3", "q4"),
            ("distance", "invariant distance between two points", "q1", "q2"),
            ("geodesic", "line through two points, with samples", "q1", "q2"),
            ("cayley", "ball/half-space boundary map", "point"),
            ("metric", "length of a tangent vector", "point", "tangent"),
            ("kobayashi-witness", "gap between the two ball metrics"),
            ("selftest", "run the seeded invariant suites")):
        p = sub.add_parser(name, help=text)
        if name in ("distance", "geodesic", "metric"):
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--disc", action="store_true")
            grp.add_argument("--halfspace", action="store_true")
        for operand in operands:
            p.add_argument(operand)
    sub.choices["geodesic"].add_argument("--samples", type=int, default=50)
    sub.choices["geodesic"].add_argument("--csv", action="store_true",
                                         help="emit the samples as CSV instead of JSON")
    sub.choices["cayley"].add_argument("--inverse", action="store_true")
    sub.choices["kobayashi-witness"].add_argument("--grid", type=int, default=20)
    sub.choices["selftest"].add_argument("--iters", type=int, default=200)
    return parser


def _dispatch(args) -> int:
    cmd = args.command
    A = _parse(args.mat, Mat2H.from_json) if "mat" in args else None
    if cmd == "det":
        _emit({"det": det_h(A)})
    elif cmd == "inv":
        _emit({"matrix": inverse(A).to_json()})
    elif cmd == "normalize":
        _emit({"matrix": normalize(A).to_json()})
    elif cmd == "classify":
        tags = classify(A, args.tol)
        _emit({"tags": [t.value for t in sorted(tags, key=lambda t: t.value)]})
    elif cmd == "apply":
        _emit({"result": ext_to_json(apply(A, _parse(args.point, ext_from_json)))})
    elif cmd == "decompose":
        _emit({"generators": [generator_to_json(g)
                              for g in decompose_generators(FLT(A))]})
    elif cmd == "canonical":
        g = to_canonical_disc(A, args.tol)
        _emit({"alpha": g.alpha.to_json(), "beta": g.beta.to_json(),
               "q0": g.q0.to_json()})
    elif cmd == "cross-ratio":
        pts = [_parse(t, ext_from_json) for t in (args.q1, args.q2, args.q3, args.q4)]
        _emit(cross_ratio(*pts, args.tol).to_json())
    elif cmd == "concyclic":
        pts = [_parse(t, ext_from_json) for t in (args.q1, args.q2, args.q3, args.q4)]
        flag = is_concyclic(*pts, tol=args.tol)
        _emit({"concyclic": flag, "cross_ratio": cross_ratio(*pts, args.tol).to_json()})
    elif cmd == "distance":
        q1, q2 = (_parse(t, Quaternion.from_json) for t in (args.q1, args.q2))
        value = distance_disc(q1, q2) if args.disc else distance_halfspace(q1, q2)
        _emit({"distance": value})
    elif cmd == "geodesic":
        q1, q2 = (_parse(t, Quaternion.from_json) for t in (args.q1, args.q2))
        if args.disc:
            geo = geodesic_disc(q1, q2, args.tol)
            ends = geo.q3, geo.q4
            samples = geodesic_sample_rows(q1, q2, args.samples, args.tol).tolist()
        else:
            geo = geodesic_halfspace(q1, q2, args.tol)
            ends = geo.e3, geo.e4
            samples = geodesic_sample_halfspace(q1, q2, args.samples, args.tol)
        if args.csv:
            print("\n".join(["w,x,y,z", *(",".join(f"{v:.7g}" for v in p) for p in samples)]))
        else:
            _emit({"kind": geo.kind, "ends": [ext_to_json(e) for e in ends], "samples": samples})
    elif cmd == "cayley":
        point = _parse(args.point, ext_from_json)
        result = cayley_inv(point) if args.inverse else cayley(point)
        _emit({"result": ext_to_json(result)})
    elif cmd == "metric":
        q, tau = (_parse(t, Quaternion.from_json) for t in (args.point, args.tangent))
        value = metric_disc(q, tau) if args.disc else metric_halfspace(q, tau)
        _emit({"metric": value})
    elif cmd == "kobayashi-witness":
        _emit(non_isometry_witness(grid=args.grid))
    elif cmd == "selftest":
        from . import selftest
        report = selftest.run_all(seed=args.seed, iters=args.iters)
        _emit(report)
        return 0 if report["ok"] else 1
    return 0


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}))
        return 2
    try:
        return _dispatch(args)
    except _ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}))
        return 2
    except GeometryError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
