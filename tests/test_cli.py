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
from qmobius.quat import get_tolerance

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
    code, out = invoke(capsys, "geodesic", "--disc", "[0,0,0,0]", "[0.5,0,0,0]",
                       "--samples", "3", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,x,y,z"
    assert len(lines) == 4


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
    base = get_tolerance()
    code, data = invoke_json(capsys, "--tol", "0.5", "classify",
                             "[[1,0,0,0],[0.1,0,0,0],[0,0,0,0],[1,0,0,0]]")
    assert code == 0
    assert "Sp11" in data["tags"]  # sloppy tolerance accepts the perturbation
    assert get_tolerance() == base  # the flag stays inside its call
    code, data = invoke_json(capsys, "classify",
                             "[[1,0,0,0],[0.1,0,0,0],[0,0,0,0],[1,0,0,0]]")
    assert code == 0
    assert "Sp11" not in data["tags"]


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


@given(st.one_of(
    st.tuples(st.just("det"), _mats),
    st.tuples(st.sampled_from(["--disc", "--halfspace"]), _quats, _quats)))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_cli_contract_one_document_and_an_exit_code(call):
    head, *operands = call
    argv = ([head] if head == "det" else ["distance", head]) + [json.dumps(x) for x in operands]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert err.getvalue() == ""
    data = _strict_json(out.getvalue())
    assert code in (0, 1, 2)
    assert ("error" in data) == (code != 0)


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
