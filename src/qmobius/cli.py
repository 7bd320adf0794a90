"""Command line interface.

Each subcommand reads its operands as JSON literals, prints exactly one
JSON document (or CSV with geodesic --csv) on stdout and exits 0 on
success, 1 on a domain error, 2 on a parse error.  Floats are rounded
to 7 significant digits and keys keep a fixed order, so output is
byte-stable for fixed inputs, tolerance and seed.

Environment variables QMOBIUS_TOL and QMOBIUS_SEED supply defaults for
the --tol and --seed flags.
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
                     geodesic_disc, geodesic_halfspace, geodesic_sample,
                     metric_disc, metric_halfspace, samples_to_csv,
                     samples_to_json)
from .kobayashi import non_isometry_witness
from .mat2h import Mat2H, classify, det_h, inverse, normalize
from .quat import Quaternion, get_tolerance, set_tolerance


class _ParseError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseError(message)


def _round7(x: float):
    v = float(f"{x:.7g}") + 0.0
    if v == int(v) and abs(v) < 1e15:
        return int(v)
    return v


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


def _parse_json(text: str):
    """json.loads that refuses NaN, Infinity and numbers beyond float range."""
    try:
        return json.loads(text, parse_constant=_finite_number,
                          parse_float=_finite_number, parse_int=_finite_number)
    except json.JSONDecodeError as exc:
        raise _ParseError(f"invalid JSON operand {text!r}: {exc}") from exc


def _parse_quat(text: str) -> Quaternion:
    data = _parse_json(text)
    try:
        return Quaternion.from_json(data)
    except (ValueError, TypeError) as exc:
        raise _ParseError(str(exc)) from exc


def _parse_ext(text: str):
    data = _parse_json(text)
    if data == "inf":
        return ext_from_json(data)
    try:
        return Quaternion.from_json(data)
    except (ValueError, TypeError) as exc:
        raise _ParseError(str(exc)) from exc


def _parse_mat(text: str) -> Mat2H:
    data = _parse_json(text)
    try:
        return Mat2H.from_json(data)
    except (ValueError, TypeError) as exc:
        raise _ParseError(str(exc)) from exc


def build_parser() -> _Parser:
    env_tol = os.environ.get("QMOBIUS_TOL")
    env_seed = os.environ.get("QMOBIUS_SEED")

    parser = _Parser(prog="qmobius", description=__doc__)
    parser.add_argument("--tol", type=float,
                        default=float(env_tol) if env_tol else None,
                        help="override both comparison tolerances")
    parser.add_argument("--seed", type=int,
                        default=int(env_seed) if env_seed else 0,
                        help="seed for randomized subcommands")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("det", help="Dieudonne determinant of a matrix")
    p.add_argument("mat")

    p = sub.add_parser("inv", help="matrix inverse")
    p.add_argument("mat")

    p = sub.add_parser("normalize", help="scale a matrix to det 1")
    p.add_argument("mat")

    p = sub.add_parser("classify", help="group membership tags")
    p.add_argument("mat")

    p = sub.add_parser("apply", help="evaluate the induced map at a point")
    p.add_argument("mat")
    p.add_argument("point")

    p = sub.add_parser("decompose", help="factor a map into generators")
    p.add_argument("mat")

    p = sub.add_parser("canonical", help="canonical ball-map parameters")
    p.add_argument("mat")

    p = sub.add_parser("cross-ratio", help="cross-ratio of four points")
    for name in ("q1", "q2", "q3", "q4"):
        p.add_argument(name)

    p = sub.add_parser("concyclic", help="do four points share a circle")
    for name in ("q1", "q2", "q3", "q4"):
        p.add_argument(name)

    p = sub.add_parser("distance", help="invariant distance between two points")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--disc", action="store_true")
    grp.add_argument("--halfspace", action="store_true")
    p.add_argument("q1")
    p.add_argument("q2")

    p = sub.add_parser("geodesic", help="line through two points, with samples")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--disc", action="store_true")
    grp.add_argument("--halfspace", action="store_true")
    p.add_argument("q1")
    p.add_argument("q2")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--csv", action="store_true",
                   help="emit the ball samples as CSV instead of JSON")

    p = sub.add_parser("cayley", help="ball/half-space boundary map")
    p.add_argument("--inverse", action="store_true")
    p.add_argument("point")

    p = sub.add_parser("metric", help="length of a tangent vector")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--disc", action="store_true")
    grp.add_argument("--halfspace", action="store_true")
    p.add_argument("point")
    p.add_argument("tangent")

    p = sub.add_parser("kobayashi-witness",
                       help="gap between the two ball metrics")
    p.add_argument("--grid", type=int, default=20)

    p = sub.add_parser("selftest", help="run the seeded invariant suites")
    p.add_argument("--iters", type=int, default=200)

    return parser


def _cmd_geodesic(args) -> int:
    q1 = _parse_quat(args.q1)
    q2 = _parse_quat(args.q2)
    n = args.samples
    if args.disc:
        geo = geodesic_disc(q1, q2)
        samples = geodesic_sample(q1, q2, n)
        if args.csv:
            sys.stdout.write(samples_to_csv(samples, digits=7))
            return 0
        _emit({"kind": geo.kind,
               "ends": [ext_to_json(geo.q3), ext_to_json(geo.q4)],
               "samples": samples_to_json(samples)})
        return 0
    geo = geodesic_halfspace(q1, q2)
    samples = [cayley(p) for p in
               geodesic_sample(cayley_inv(q1), cayley_inv(q2), n)]
    if args.csv:
        finite = [p for p in samples if isinstance(p, Quaternion)]
        sys.stdout.write(samples_to_csv(finite, digits=7))
        return 0
    _emit({"kind": geo.kind,
           "ends": [ext_to_json(geo.e3), ext_to_json(geo.e4)],
           "samples": [ext_to_json(p) for p in samples]})
    return 0


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "det":
        _emit({"det": det_h(_parse_mat(args.mat))})
    elif cmd == "inv":
        _emit({"matrix": inverse(_parse_mat(args.mat)).to_json()})
    elif cmd == "normalize":
        _emit({"matrix": normalize(_parse_mat(args.mat)).to_json()})
    elif cmd == "classify":
        tags = classify(_parse_mat(args.mat), args.tol)
        _emit({"tags": [t.value for t in sorted(tags, key=lambda t: t.value)]})
    elif cmd == "apply":
        result = apply(_parse_mat(args.mat), _parse_ext(args.point))
        _emit({"result": ext_to_json(result)})
    elif cmd == "decompose":
        f = FLT(_parse_mat(args.mat))
        _emit({"generators": [generator_to_json(g)
                              for g in decompose_generators(f)]})
    elif cmd == "canonical":
        g = to_canonical_disc(_parse_mat(args.mat), args.tol)
        _emit({"alpha": g.alpha.to_json(), "beta": g.beta.to_json(),
               "q0": g.q0.to_json()})
    elif cmd == "cross-ratio":
        cr = cross_ratio(_parse_ext(args.q1), _parse_ext(args.q2),
                         _parse_ext(args.q3), _parse_ext(args.q4), args.tol)
        _emit(cr.to_json())
    elif cmd == "concyclic":
        pts = [_parse_ext(args.q1), _parse_ext(args.q2),
               _parse_ext(args.q3), _parse_ext(args.q4)]
        flag = is_concyclic(*pts, tol=args.tol)
        _emit({"concyclic": flag, "cross_ratio": cross_ratio(*pts).to_json()})
    elif cmd == "distance":
        q1, q2 = _parse_quat(args.q1), _parse_quat(args.q2)
        value = distance_disc(q1, q2) if args.disc else distance_halfspace(q1, q2)
        _emit({"distance": value})
    elif cmd == "geodesic":
        return _cmd_geodesic(args)
    elif cmd == "cayley":
        point = _parse_ext(args.point)
        result = cayley_inv(point) if args.inverse else cayley(point)
        _emit({"result": ext_to_json(result)})
    elif cmd == "metric":
        q = _parse_quat(args.point)
        tau = _parse_quat(args.tangent)
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
    saved = get_tolerance()
    if args.tol is not None:
        set_tolerance(args.tol, args.tol)
    try:
        return _dispatch(args)
    except _ParseError as exc:
        print(json.dumps({"error": "parse", "message": str(exc)}))
        return 2
    except GeometryError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 1
    finally:
        set_tolerance(*saved)


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
