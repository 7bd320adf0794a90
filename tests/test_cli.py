"""Command line interface: JSON shapes, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmobius import cli
from qmobius.flt import INFINITY, ext_from_json
from qmobius.mat2h import Mat2H
from qmobius.quat import Quaternion

IDENT = "[[1,0,0,0],[0,0,0,0],[0,0,0,0],[1,0,0,0]]"
BOOST = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"  # [[1, i], [j, k]]


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


# -- happy paths ---------------------------------------------------------


def test_det(capsys):
    code, data = invoke_json(capsys, "det", BOOST)
    assert code == 0
    assert data == {"det": 2}


def test_det_of_rows_split_at_1e155(capsys):
    # scaling the rows apart once took b and d to subnormals and printed 0
    code, data = invoke_json(capsys, "det", "[[1e155,0,0,0],[1e-155,0,0,0],"
                                            "[1e155,0,0,0],[2e-155,0,0,0]]")
    assert (code, data) == (0, {"det": 1})


def test_inv_and_normalize(capsys):
    code, data = invoke_json(
        capsys, "inv", "[[1,0,0,0],[0,0,0,0],[0,0,0,0],[2,0,0,0]]")
    assert code == 0
    assert data["matrix"] == [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                              [0.5, 0, 0, 0]]
    code, data = invoke_json(
        capsys, "normalize", "[[2,0,0,0],[0,0,0,0],[0,0,0,0],[2,0,0,0]]")
    assert code == 0
    assert data["matrix"] == [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                              [1, 0, 0, 0]]


def test_classify(capsys):
    code, data = invoke_json(capsys, "classify", IDENT)
    assert code == 0
    assert set(data["tags"]) == {"GL2H", "SL2H", "Sp11", "SLHplus",
                                 "CenterGL", "CenterSL"}


def test_apply_finite_and_infinite(capsys):
    mat = "[[1,0,0,0],[0,1,0,0],[0,0,0,0],[1,0,0,0]]"  # q -> q + i
    code, data = invoke_json(capsys, "apply", mat, "[0,0,0,0]")
    assert (code, data) == (0, {"result": [0, 1, 0, 0]})
    inversion = "[[0,0,0,0],[1,0,0,0],[1,0,0,0],[0,0,0,0]]"
    code, data = invoke_json(capsys, "apply", inversion, "[0,0,0,0]")
    assert (code, data) == (0, {"result": "inf"})
    code, data = invoke_json(capsys, "apply", inversion, '"inf"')
    assert (code, data) == (0, {"result": [0, 0, 0, 0]})


def test_decompose(capsys):
    mat = "[[1,0,0,0],[0,1,0,0],[0,0,0,0],[1,0,0,0]]"
    code, data = invoke_json(capsys, "decompose", mat)
    assert code == 0
    assert data["generators"] == [{"type": "translation", "b": [0, 1, 0, 0]}]


def test_canonical(capsys):
    c, s = math.cosh(1.0), math.sinh(1.0)
    mat = json.dumps([[c, 0, 0, 0], [s, 0, 0, 0], [s, 0, 0, 0], [c, 0, 0, 0]])
    code, data = invoke_json(capsys, "canonical", mat)
    assert code == 0
    assert data["alpha"] == [1, 0, 0, 0]
    assert data["beta"] == [1, 0, 0, 0]
    assert data["q0"][0] == pytest.approx(-math.tanh(1.0), abs=1e-6)


def test_cross_ratio(capsys):
    code, data = invoke_json(capsys, "cross-ratio", "[0,0,0,0]", "[0.5,0,0,0]",
                             "[1,0,0,0]", "[-1,0,0,0]")
    assert (code, data) == (0, [3, 0, 0, 0])
    code, data = invoke_json(capsys, "cross-ratio", "[2,1,0,0]", "[1,0,0,0]",
                             "[0,0,0,0]", '"inf"')
    assert (code, data) == (0, [2, 1, 0, 0])


def test_concyclic(capsys):
    code, data = invoke_json(capsys, "concyclic", "[0,0.5,0,0]", "[0,0,0.5,0]",
                             "[0,2,0,0]", "[0,0,2,0]")
    assert code == 0
    assert data["concyclic"] is True
    assert data["cross_ratio"][0] == pytest.approx(9.0 / 17.0, abs=1e-6)


def test_distance(capsys):
    code, data = invoke_json(capsys, "distance", "--disc", "[0,0,0,0]",
                             "[0.5,0,0,0]")
    assert code == 0
    assert data["distance"] == pytest.approx(0.5493061, abs=1e-6)
    code, data = invoke_json(capsys, "distance", "--halfspace", "[2,0,0,0]",
                             "[8,0,0,0]")
    assert code == 0
    assert data["distance"] == pytest.approx(math.log(2.0), abs=1e-6)


@pytest.mark.parametrize("argv, expected", [
    (("--disc", "[0.999999999999,0,0,0]", "[-0.999999999999,0,0,0]"), 28.32419),
    (("--halfspace", "[1e-13,0,0,0]", "[1e-12,0,0,0]"), 1.151293),
])
def test_distance_near_boundary(capsys, argv, expected):
    code, out = invoke(capsys, "distance", *argv)
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out) == {"distance": expected}


def test_geodesic_json(capsys):
    code, data = invoke_json(capsys, "geodesic", "--disc", "[0,0,0,0]",
                             "[0.5,0,0,0]", "--samples", "3")
    assert code == 0
    assert data["kind"] == "Diameter"
    assert data["ends"] == [[1, 0, 0, 0], [-1, 0, 0, 0]]
    assert len(data["samples"]) == 3
    assert data["samples"][1][0] == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-6)

    code, data = invoke_json(capsys, "geodesic", "--halfspace", "[2,0,0,0]",
                             "[8,0,0,0]", "--samples", "3")
    assert code == 0
    assert data["kind"] == "HalfLine"
    assert "inf" in data["ends"]
    assert data["samples"][1] == [4, 0, 0, 0]


def test_geodesic_csv(capsys):
    # either model, in 7 significant digits
    code, out = invoke(capsys, "geodesic", "--disc", "[0,0,0,0]", "[0.5,0,0,0]",
                       "--samples", "3", "--csv")
    assert (code, out) == (0, "w,x,y,z\n0,0,0,0\n0.2679492,0,0,0\n0.5,0,0,0\n")
    code, out = invoke(capsys, "geodesic", "--halfspace", "[2,0,0,0]", "[8,0,0,0]",
                       "--samples", "3", "--csv")
    assert (code, out) == (0, "w,x,y,z\n2,0,0,0\n4,0,0,0\n8,0,0,0\n")


def test_ball_samples_mirror_across_the_line(capsys):
    # the two points are mirror images, each 1e-10 inside the sphere: the 4th
    # sample is the 2nd with its halves swapped, each taken from its nearer end
    # (from q1 alone, the 4th printed [1.193514e-06, -7.216367e-07, ...]).
    # The small pair is 3.3940757870e-11, 4.5254343821e-11 to 50 digits; its
    # 7th digit lies below ulp(|p|) = 1.1e-16, so these are the printed values
    code, data = invoke_quiet(capsys, "geodesic", "--disc", "[0.6,0.7999999999,0,0]",
                              "[0,0,0.6,0.7999999999]", "--samples", "5")
    assert code == 0
    assert data["samples"][1] == [0.5999936, 0.7999915, 3.394078e-11, 4.525435e-11]
    assert data["samples"][3] == [3.394078e-11, 4.525435e-11, 0.5999936, 0.7999915]


def test_cayley(capsys):
    code, data = invoke_json(capsys, "cayley", "[0,0.5,0,0]")
    assert (code, data) == (0, {"result": [0.6, 0.8, 0, 0]})
    code, data = invoke_json(capsys, "cayley", "[1,0,0,0]")
    assert (code, data) == (0, {"result": "inf"})
    code, data = invoke_json(capsys, "cayley", "--inverse", "[0.6,0.8,0,0]")
    assert (code, data) == (0, {"result": [0, 0.5, 0, 0]})


def test_metric(capsys):
    code, data = invoke_json(capsys, "metric", "--disc", "[0.5,0,0,0]",
                             "[0,1,1,0]")
    assert code == 0
    assert data["metric"] == pytest.approx(1.885618, abs=1e-6)
    code, data = invoke_json(capsys, "metric", "--halfspace", "[1,0,0,0]",
                             "[1,0,0,0]")
    assert (code, data) == (0, {"metric": 0.5})


def test_kobayashi_witness(capsys):
    code, data = invoke_json(capsys, "kobayashi-witness", "--grid", "6")
    assert code == 0
    assert data["witness"]["Q"] == pytest.approx(0.4705882, abs=1e-6)
    assert data["witness"]["C"] == pytest.approx(0.4375, abs=1e-6)
    assert data["witness"]["gap"] > 0.03


_WITNESS = ('{"witness": {"alpha": 0.5, "beta": 0.5, "Q": 0.4705882, "C": 0.4375, '
            '"gap": 0.03308824}, "distances": {"poincare": 0.8403499, "kobayashi": 0.7953655}, '
            '"grid_max_gap": %s}\n')


@pytest.mark.parametrize("grid, max_gap", [("2", "0.03308824"), ("6", "0.05091002"),
                                           ("20", "0.05051597")])
def test_kobayashi_witness_document_is_byte_stable(capsys, grid, max_gap):
    # the documents the two image-modulus closed forms printed
    assert invoke(capsys, "kobayashi-witness", "--grid", grid) == (0, _WITNESS % max_gap)


def test_selftest(capsys):
    code, data = invoke_json(capsys, "--seed", "3", "selftest", "--iters", "5")
    assert code == 0
    assert data["ok"] is True
    assert data["seed"] == 3
    assert set(data["suites"]) >= {"binet", "inverse", "cross_ratio",
                                    "distance", "kobayashi"}
    for suite in data["suites"].values():
        assert {"ok", "n_checked", "n_skipped", "worst_err", "bound",
                "margin"} <= set(suite)
        assert suite["ok"] is True and suite["n_checked"] > 0


# -- determinism and configuration --------------------------------------


def test_output_is_byte_stable(capsys):
    argv = ("selftest", "--iters", "5", "--seed", "1")
    _, first = invoke(capsys, *argv)
    _, second = invoke(capsys, *argv)
    assert first == second


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("QMOBIUS_SEED", "9")
    code, data = invoke_json(capsys, "selftest", "--iters", "5")
    assert code == 0
    assert data["seed"] == 9


def test_tol_flag_changes_comparisons(capsys):
    code, data = invoke_json(capsys, "--tol", "0.5", "classify",
                             "[[1,0,0,0],[0.1,0,0,0],[0,0,0,0],[1,0,0,0]]")
    assert code == 0
    assert "Sp11" in data["tags"]  # sloppy tolerance accepts the perturbation
    # the flag stays inside its call
    code, data = invoke_json(capsys, "classify",
                             "[[1,0,0,0],[0.1,0,0,0],[0,0,0,0],[1,0,0,0]]")
    assert code == 0
    assert "Sp11" not in data["tags"]


# points 1e-10 apart coincide under the default tolerance, not under 1e-12;
# concyclic has both pairs that close, as cross_ratio does not check q1, q2
_NEAR = ("[0.5,0,0,0]", "[0.5000000001,0,0,0]")


@pytest.mark.parametrize("tol, argv, error", [
    ("1e-12", ("geodesic", "--disc", *_NEAR, "--samples", "3"), "CoincidentPoints"),
    ("1e-12", ("geodesic", "--halfspace", *_NEAR, "--samples", "3"), "CoincidentPoints"),
    ("1e-12", ("concyclic", *_NEAR, "[0,0.5,0,0]", "[0,0.5000000001,0,0]"),
     "CoincidentPoints"),
    ("1e-12", ("cross-ratio", "[0,0.5,0,0]", "[0,0,0.5,0]", *_NEAR), "CoincidentPoints"),
    ("0.5", ("canonical", "[[1,0,0,0],[0.1,0,0,0],[0,0,0,0],[1,0,0,0]]"), "NotSp11"),
])
def test_tol_flag_reaches_every_call_that_takes_it(capsys, tol, argv, error):
    code, data = invoke_json(capsys, *argv)
    assert (code, data["error"]) == (1, error)
    code, data = invoke_json(capsys, "--tol", tol, *argv)
    assert code == 0, data


def test_canonical_at_zero_tolerance(capsys):
    # a / |a| is a unit only to rounding, so the unit check of the canonical
    # parameters must not read the flag
    a = [0.932368563706926, 0.361509144298016, 0, 0]
    mat = json.dumps([a, [0, 0, 0, 0], [0, 0, 0, 0], a])
    code, data = invoke_json(capsys, "--tol", "0", "canonical", mat)
    assert (code, data) == (0, {"alpha": [0.9323686, 0.3615091, 0, 0],
                                "beta": [0.9323686, 0.3615091, 0, 0],
                                "q0": [0, 0, 0, 0]})


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "1e400", "abc", ""])
def test_bad_tol_is_a_parse_error(capsys, value):
    code, data = invoke_quiet(capsys, "--tol", value, "classify", IDENT)
    assert (code, data["error"]) == (2, "parse")


@pytest.mark.parametrize("name, value", [("QMOBIUS_TOL", "abc"), ("QMOBIUS_TOL", "-1"),
                                         ("QMOBIUS_SEED", "abc")])
def test_bad_environment_default_is_a_parse_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, data = invoke_quiet(capsys, "classify", IDENT)
    assert (code, data["error"]) == (2, "parse")


# -- error paths ---------------------------------------------------------


def test_domain_error_exits_one(capsys):
    code, data = invoke_json(
        capsys, "inv", "[[0,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]]")
    assert code == 1
    assert data["error"] == "Singular"

    code, data = invoke_json(capsys, "distance", "--disc", "[2,0,0,0]",
                             "[0,0,0,0]")
    assert code == 1
    assert data["error"] == "OutOfDomain"


@pytest.mark.parametrize("model", ["--disc", "--halfspace"])
def test_geodesic_one_sample_is_a_domain_error(capsys, model):
    code, data = invoke_json(capsys, "geodesic", model, "[0.5,0,0,0]",
                             "[0.25,0,0,0]", "--samples", "1")
    assert code == 1
    assert data["error"] == "TooFewSamples"


def test_selftest_with_no_iterations_fails(capsys):
    code, data = invoke_json(capsys, "selftest", "--iters", "0")
    assert code == 1
    assert data["ok"] is False
    assert data["suites"]["binet"]["n_checked"] == 0


@pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_operand_is_a_parse_error(capsys, entry):
    code, data = invoke_json(
        capsys, "det", f"[[{entry},0,0,0],[0,0,0,0],[0,0,0,0],[1,0,0,0]]")
    assert code == 2
    assert data["error"] == "parse"


def test_parse_error_exits_two(capsys):
    code, data = invoke_json(capsys, "det", "nonsense")
    assert code == 2
    assert data["error"] == "parse"

    code, data = invoke_json(capsys, "det", "[[1,0,0],[0,0,0],[0,0,0],[1,0,0]]")
    assert code == 2
    assert data["error"] == "parse"

    code, _ = invoke(capsys, "distance", "[1,0,0,0]", "[2,0,0,0]")
    assert code == 2


def invoke_quiet(capsys, *argv):
    """Exit code and the one JSON document printed, with nothing on stderr."""
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, json.loads(captured.out)


@pytest.mark.parametrize("mat, det", [
    ("[[1e100,0,0,0],[0,0,0,0],[0,0,0,0],[1e100,0,0,0]]", 1e200),
    ("[[1e-100,0,0,0],[0,0,0,0],[0,0,0,0],[1e-100,0,0,0]]", 1e-200),
    ("[[1e200,0,0,0],[0,0,0,0],[0,0,0,0],[1e-200,0,0,0]]", 1),
    # a subnormal row: its balancing factor 2^1029 is not a float
    ("[[1e-310,0,0,0],[0,0,0,0],[0,0,0,0],[1,0,0,0]]", 1e-310),
])
def test_det_beyond_squared_norm_range_stays_finite(capsys, mat, det):
    assert invoke_quiet(capsys, "det", mat) == (0, {"det": det})


def test_inverse_of_a_tiny_diagonal_matrix(capsys):
    code, data = invoke_quiet(capsys, "inv",
                              "[[1e-100,0,0,0],[0,0,0,0],[0,0,0,0],[1e-100,0,0,0]]")
    assert (code, data) == (0, {"matrix": [[1e100, 0, 0, 0], [0, 0, 0, 0],
                                           [0, 0, 0, 0], [1e100, 0, 0, 0]]})


def test_overflowing_det_is_a_domain_error(capsys):
    code, data = invoke_quiet(capsys, "det",
                              "[[1e200,0,0,0],[0,0,0,0],[0,0,0,0],[1e200,0,0,0]]")
    assert (code, data["error"]) == (1, "NonFiniteResult")


def test_huge_halfspace_points_keep_a_finite_distance(capsys):
    # |q1 - q2| no longer overflows, so the distance is asinh(1/2)
    code, data = invoke_quiet(capsys, "distance", "--halfspace",
                              "[1e200,0,0,0]", "[1e200,1e200,0,0]")
    assert (code, data) == (0, {"distance": 0.4812118})


def test_distance_whose_quotient_overflows_stays_finite(capsys):
    # asinh x = log 2x there, taken in logs
    code, data = invoke_quiet(capsys, "distance", "--halfspace",
                              "[1e-300,0,0,0]", "[1e-300,1e200,0,0]")
    assert (code, data) == (0, {"distance": 1151.293})


@pytest.mark.parametrize("q1, q2, expected", [
    # q1 - q2 overflows; the distance is log(2e308)
    ("[1,1e308,0,0]", "[1,-1e308,0,0]", 709.8894),
    # q1 - q2 overflows, yet the quotient is only 1.25
    ("[8e307,1e308,0,0]", "[8e307,-1e308,0,0]", 1.047593),
    # 2 sqrt(Re q1) sqrt(Re q2) would overflow; the quotient is 5e-9
    ("[1e308,0,0,0]", "[1e308,1e300,0,0]", 5e-09),
    # the gap is one subnormal step, which halving it first would lose
    ("[1.5e-323,0,0,0]", "[1.5e-323,5e-324,0,0]", 0.1659046),
])
def test_halfspace_distance_at_the_ends_of_float_range(capsys, q1, q2, expected):
    code, data = invoke_quiet(capsys, "distance", "--halfspace", q1, q2)
    assert (code, data) == (0, {"distance": expected})


def test_cross_ratio_is_dilation_invariant_beyond_squared_norm_range(capsys):
    # the same points at scale 1 give [0.5, -0.5, -0.5, -0.5]; at 1e160 the
    # squared moduli overflowed and the inverses came out 0
    code, data = invoke_quiet(capsys, "cross-ratio", "[0,0,0,0]", "[1e160,0,0,0]",
                              "[0,1e160,0,0]", "[0,0,1e160,0]")
    assert (code, data) == (0, [0.5, -0.5, -0.5, -0.5])


def test_tiny_distinct_points_do_not_coincide(capsys):
    # the points are 1e-160 apart; coincidence is relative to their moduli
    code, data = invoke_quiet(capsys, "cross-ratio", "[0,0,0,0]", "[1e-160,0,0,0]",
                              "[0,1e-160,0,0]", "[0,0,1e-160,0]")
    assert (code, data) == (0, [0.5, -0.5, -0.5, -0.5])


@pytest.mark.parametrize("model, q1, q2", [
    # det_h of the normalizing map is 1 - |q1|^2, under the singularity gate
    ("--disc", "[0.99999999,0,0,0]", "[0,0.5,0,0]"),
    # q1's Cayley image lies as close to the sphere
    ("--halfspace", "[1e-9,0,0,0]", "[1,0.5,0,0]"),
])
def test_geodesic_samples_from_near_the_boundary(capsys, model, q1, q2):
    code, data = invoke_quiet(capsys, "geodesic", model, q1, q2, "--samples", "5")
    assert code == 0, data
    assert len(data["samples"]) == 5 and data["samples"][-1] == json.loads(q2)


def test_halfspace_geodesic_samples_stay_inside_with_exact_endpoints(capsys):
    # both points at Re q = 1e-12: every sample keeps Re q > 0, and the
    # endpoints print exactly as given
    code, data = invoke_quiet(capsys, "geodesic", "--halfspace", "[1e-12,0,0,0]",
                              "[1e-12,1,0,0]", "--samples", "5")
    assert code == 0, data
    assert data["samples"][0] == [1e-12, 0, 0, 0]
    assert data["samples"][-1] == [1e-12, 1, 0, 0]
    assert all(p[0] > 0 for p in data["samples"])
    assert data["ends"] == [[0, 1, 0, 0], [0, -1e-24, 0, 0]]
    code, out = invoke(capsys, "geodesic", "--halfspace", "[1e-12,0,0,0]",
                       "[1e-12,1,0,0]", "--samples", "5", "--csv")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert code == 0 and len(rows) == 5 and all(float(r[0]) > 0 for r in rows)


@pytest.mark.parametrize("q2", ["[1e300,0,0,0]", "[1e300,1,0,0]"])
def test_halfspace_samples_far_apart_print_with_exact_endpoints(capsys, q2):
    # the far end of the walk from q1 overflowed math.exp with a traceback
    for a, b in (("[1e-300,0,0,0]", q2), (q2, "[1e-300,0,0,0]")):
        code, data = invoke_quiet(capsys, "geodesic", "--halfspace", a, b, "--samples", "5")
        assert code == 0, data
        samples = data["samples"]
        assert samples[0] == json.loads(a) and samples[-1] == json.loads(b)
        assert all(p[0] > 0 for p in samples)


def test_points_whose_modulus_overflows_do_not_coincide(capsys):
    # |q2| = 1.8e308 overflowed to inf, under which every gap coincided
    p, r = "[1.5e308,0,0,0]", "[1.5e308,1e308,0,0]"
    code, data = invoke_quiet(capsys, "cross-ratio", p, r, "[0,0,1,0]", "[0,0,0,1]")
    assert code == 0, data
    code, data = invoke_quiet(capsys, "geodesic", "--halfspace", p, r, "--samples", "3")
    assert code == 0, data
    assert data["samples"] == [[1.5e308, 0, 0, 0], [1.581139e308, 5e307, 0, 0],
                               [1.5e308, 1e308, 0, 0]]


def test_one_operand_parser_for_every_kind():
    # points, points that may be "inf", and matrices share one parser; its
    # documents are those each kind printed before
    assert cli._parse('"inf"', ext_from_json) is INFINITY
    assert cli._parse("[1,2,3,4]", ext_from_json) == Quaternion(1, 2, 3, 4)
    assert cli._parse(IDENT, Mat2H.from_json) == Mat2H.identity()
    for text, from_json, message in (
            ('"inf"', Quaternion.from_json, "quaternion JSON must be a 4-number array"),
            ('["0",0,0,0]', ext_from_json,
             "quaternion entries must be numbers, got ['0', 0.0, 0.0, 0.0]"),
            ("[1,2]", Mat2H.from_json, "matrix JSON must be a 4-element array of quaternions"),
            ("[1,2,NaN,0]", Quaternion.from_json, "non-finite operand NaN"),
            ("nonsense", Mat2H.from_json,
             "invalid JSON operand 'nonsense': Expecting value: line 1 column 1 (char 0)")):
        with pytest.raises(cli._ParseError) as info:
            cli._parse(text, from_json)
        assert str(info.value) == message


def test_apply_of_a_huge_scalar_matrix_is_the_identity(capsys):
    code, data = invoke_quiet(capsys, "apply",
                              "[[1e160,0,0,0],[0,0,0,0],[0,0,0,0],[1e160,0,0,0]]",
                              "[1,0,0,0]")
    assert (code, data) == (0, {"result": [1, 0, 0, 0]})


@pytest.mark.parametrize("mat, point", [
    # q -> q 1e160 sends 1e-160 to 1; the pole test is relative to the map's scale
    ("[[1,0,0,0],[0,0,0,0],[0,0,0,0],[1e-160,0,0,0]]", "[1e-160,0,0,0]"),
    ("[[1e-160,0,0,0],[0,0,0,0],[1e-160,0,0,0],[1e-160,0,0,0]]", '"inf"'),
])
def test_apply_at_tiny_scale_is_not_a_pole(capsys, mat, point):
    assert invoke_quiet(capsys, "apply", mat, point) == (0, {"result": [1, 0, 0, 0]})


def test_apply_whose_image_overflows_is_a_domain_error(capsys):
    # 1e-310 is no pole of q -> q^-1 relative to the map's scale, and its
    # image 1e310 is finite but does not fit a float
    code, data = invoke_quiet(capsys, "apply", "[[0,0,0,0],[1,0,0,0],[1,0,0,0],[0,0,0,0]]",
                              "[1e-310,0,0,0]")
    assert (code, data["error"]) == (1, "NonFiniteResult")


def _diag(v):
    return [[v, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [v, 0, 0, 0]]


def test_huge_scalar_matrix_is_invertible_and_normalizes(capsys):
    # det_h and the squared entry scale are both inf at 1e160, so the
    # singularity gate must judge the matrix scaled down by a power of two;
    # decompose builds an FLT, which normalizes
    mat = json.dumps(_diag(1e160))
    assert invoke_quiet(capsys, "inv", mat) == (0, {"matrix": _diag(1e-160)})
    assert invoke_quiet(capsys, "normalize", mat) == (0, {"matrix": _diag(1)})
    assert invoke_quiet(capsys, "decompose", mat) == (0, {"generators": []})


def test_huge_rank_one_matrix_stays_singular(capsys):
    rank_one = "[[1e200,0,0,0],[1e200,0,0,0],[1e200,0,0,0],[1e200,0,0,0]]"
    for cmd in ("inv", "normalize"):
        code, data = invoke_quiet(capsys, cmd, rank_one)
        assert (code, data["error"]) == (1, "Singular")


@pytest.mark.parametrize("grid", ["1", "0", "-3"])
def test_witness_grid_below_two_is_a_domain_error(capsys, grid):
    code, data = invoke_quiet(capsys, "kobayashi-witness", "--grid", grid)
    assert (code, data["error"]) == (1, "TooFewSamples")


@pytest.mark.parametrize("entry", ['"nan"', '"1"', "true", "false", "null", "[0]"])
def test_non_numeric_entry_is_a_parse_error(capsys, entry):
    for argv in (("distance", "--disc", f"[{entry},0,0,0]", "[0,0,0,0]"),
                 ("det", f"[[{entry},0,0,0],[0,0,0,0],[0,0,0,0],[1,0,0,0]]")):
        code, data = invoke_quiet(capsys, *argv)
        assert (code, data["error"]) == (2, "parse")


# -- error contract fuzz -------------------------------------------------

_numbers = st.one_of(st.sampled_from([0.0, 1e200, -1e200, 1e-300, -1e-300, 1e-310, -1e-310]),
                     st.floats(-0.4, 0.4), st.floats(-3.0, 3.0))
_junk = st.one_of(st.text(max_size=3), st.booleans(), st.none())


def _arrays(item, bad_item):
    """Four items, or a wrong-length, junk-carrying or junk array."""
    good = st.lists(item, min_size=4, max_size=4)
    # sampled_from, not one_of, which would merge the repeated good branch
    return st.sampled_from([
        good, good, good, st.lists(st.one_of(item, bad_item), min_size=4, max_size=4),
        st.lists(item, min_size=3, max_size=3), st.lists(item, min_size=5, max_size=5),
        _junk]).flatmap(lambda kind: kind)


# rows whose components all come from one extreme magnitude, so that a
# whole row can be subnormal
_extreme_row = st.sampled_from([1e200, 1e-300, 1e-310]).flatmap(
    lambda v: st.lists(st.lists(st.sampled_from([0.0, v, -v]), min_size=4, max_size=4),
                       min_size=2, max_size=2))
_quats = _arrays(_numbers, _junk)
_mats = st.one_of(_arrays(st.lists(_numbers, min_size=4, max_size=4), _quats),
                  st.tuples(_extreme_row, _extreme_row).map(lambda rows: rows[0] + rows[1]))


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-finite {name} in output")
    return json.loads(text, parse_constant=refuse)


# absent, three valid values, and three that are parse errors
_tol_flags = st.sampled_from([[], ["--tol", "0"], ["--tol", "1e-12"], ["--tol", "0.5"],
                              ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"]])


def _assert_one_document_and_an_exit_code(tol_flag, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(tol_flag + argv)
    assert err.getvalue() == ""
    data = _strict_json(out.getvalue())
    assert code in (0, 1, 2)
    assert ("error" in data) == (code != 0)
    if tol_flag[1:] in (["-1"], ["nan"], ["inf"]):
        assert (code, data["error"]) == (2, "parse")


@given(_tol_flags, st.one_of(
    st.tuples(st.just("det"), _mats),
    st.tuples(st.sampled_from(["--disc", "--halfspace"]), _quats, _quats)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_contract_one_document_and_an_exit_code(tol_flag, call):
    head, *operands = call
    argv = ([head] if head == "det" else ["distance", head]) + [json.dumps(x) for x in operands]
    _assert_one_document_and_an_exit_code(tol_flag, argv)


# operands at the ends of float range, where inverses need their rescue
_extreme = st.sampled_from([0.0, 1.0, -1.0, 1e160, -1e160, 1e200, -1e200,
                            1e-300, -1e-300, 1e-310, -1e-310])
_extreme_quat = st.lists(_extreme, min_size=4, max_size=4)
_extreme_point = st.one_of(st.just("inf"), _extreme_quat)


@given(_tol_flags, st.one_of(
    st.tuples(st.just("apply"), st.lists(_extreme_quat, min_size=4, max_size=4),
              _extreme_point),
    st.tuples(st.just("cross-ratio"), *[_extreme_point] * 4)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_contract_for_maps_and_cross_ratios(tol_flag, call):
    head, *operands = call
    _assert_one_document_and_an_exit_code(tol_flag, [head] + [json.dumps(x) for x in operands])


# -- cold start ----------------------------------------------------------

_SCALAR_COMMANDS = """
import contextlib, io, json, sys
import qmobius, qmobius.cli
mat = "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]]"
calls = [["det", mat], ["inv", mat], ["classify", mat], ["apply", mat, "[0,0,0,1]"],
         ["cross-ratio", "[0,0,0,0]", "[1,0,0,0]", "[0,1,0,0]", "[0,0,1,0]"],
         ["distance", "--disc", "[0,0,0,0]", "[0.5,0,0,0]"],
         ["distance", "--halfspace", "[1,0,0,0]", "[2,0,0,0]"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [qmobius.cli.run(argv) for argv in calls]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_scalar_commands_do_not_import_numpy():
    # a cold process pays about 100 ms for numpy; only selftest, geodesic
    # and the batched kernels need it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _SCALAR_COMMANDS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"codes": [0] * 7, "numpy": False}


_IMPORT_CLI = """
import json, sys
before = set(sys.modules)
import qmobius.cli
print(json.dumps(sorted({"dataclasses", "inspect", "numpy"} & (set(sys.modules) - before))))
"""


def test_cli_import_loads_no_dataclasses_inspect_or_numpy():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 16 ms of a
    # cold process; modules that a site hook loaded first do not count
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", _IMPORT_CLI], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == []
