"""The documented surface has a home in the code: every constant in
README's constants table exists where its row says, every error type is
raised somewhere, every exported name has a caller, and every threshold
comes from quat's one tolerance rule."""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

from qmobius import errors

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qmobius"


def _constant_rows():
    """(names, where) of each row of README's constants table."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| constant | value | where |", 1)[1].split("\n\n", 1)[0]
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        yield re.findall(r"`([^`]+)`", cells[0]), re.findall(r"`([^`]+)`", cells[2])[0]


def test_readme_constants_exist_and_every_error_type_is_raised():
    rows = list(_constant_rows())
    assert len(rows) >= 5
    for names, where in rows:
        module, *path = where.split(".")
        mod = importlib.import_module(f"qmobius.{module}")
        functools.reduce(getattr, path, mod)  # a row may name a function of the module
        for name in names:
            assert hasattr(mod, name), (name, where)

    source = "\n".join(p.read_text() for p in SRC.glob("*.py"))
    subclasses = [c for _, c in inspect.getmembers(errors, inspect.isclass)
                  if issubclass(c, errors.GeometryError) and c is not errors.GeometryError]
    assert len(subclasses) >= 10
    unraised = [c.__name__ for c in subclasses
                if not re.search(rf"raise {c.__name__}\b", source)]
    assert not unraised, unraised


def test_every_threshold_comes_from_quat():
    # quat.bound is the one rule; cross_ratio's unrolled copy of coincident's
    # rule is the one exception, and tests/test_crossratio.py pins it to coincident
    inline = []
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert not re.search(r"\bt \+ t \*", text), path.name
        if path.name != "quat.py":
            assert "_tol(" not in text, path.name
            inline += [path.name] * text.count("TOL if tol is None")
    assert inline == ["crossratio.py"]


# exports that no code in src loads, kept as the tests' reference routes
REFERENCE_ROUTES = {
    "apply_generators": "the pipeline that tests run decompose_generators' output through",
    "normalizing_map": "the map whose inverse the geodesic ends and samples take in closed form",
}


def _loads(tree):
    """Names loaded in tree, as names or attributes, outside the body of a
    function or class of the same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_in_src():
    init = ast.parse((SRC / "__init__.py").read_text())
    exports = {alias.asname or alias.name for node in init.body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    loaded = set().union(*(_loads(ast.parse(p.read_text()))
                           for p in SRC.glob("*.py") if p.name != "__init__.py"))
    assert REFERENCE_ROUTES.keys() <= exports - loaded
    assert sorted(exports - loaded - REFERENCE_ROUTES.keys()) == []


NO_TOL = ("crossratio.transform_quadric", "flt.is_constant", "flt.isotropy_at_infinity",
          "flt.halfspace_general", "flt.FLT.same_map", "flt.three_point_map")


def test_predicates_that_no_caller_tunes_take_no_tol():
    for where in NO_TOL:
        module, *path = where.split(".")
        f = functools.reduce(getattr, path, importlib.import_module(f"qmobius.{module}"))
        assert "tol" not in inspect.signature(f).parameters, where


# each point-domain rule and the functions that are its home: the ball's
# gap (cayley takes the same gap as the real part of its image, not as a
# test), the half-space's real part and the finite point's components
DOMAIN_HOMES = {
    "ball gap": {"hypgeo.ball_gap", "hypgeo.cayley"},
    "real part against 0": {"hypgeo.halfspace_re"},
    "finiteness scan": {"quat.is_finite"},
}
_REAL_PARTS = {"w", "w1", "w2", "x1", "x2"}  # the names the half-space code gives Re q


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def _is_real_part(node):
    return (isinstance(node, ast.Attribute) and node.attr == "w"
            or isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value == 0
            or isinstance(node, ast.Name) and node.id in _REAL_PARTS)


def _domain_checks(path):
    """(kind, module.function) of each domain computation or comparison in path."""
    module, found = path.stem, []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and "_one_minus_norm_sq" in _names(node.func):
            found.append(("ball gap", where))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in (
                "all", "any") and "isfinite" in _names(node):
            found.append(("finiteness scan", where))
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(isinstance(o, ast.Constant) and o.value == 0 for o in operands)
                    and any(_is_real_part(o) for o in operands)):
                found.append(("real part against 0", where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), module)
    return found


def test_every_domain_rule_has_one_home():
    found = [c for p in sorted(SRC.glob("*.py")) for c in _domain_checks(p)]
    stray = sorted({(kind, where) for kind, where in found if where not in DOMAIN_HOMES[kind]})
    assert stray == []
    assert {kind for kind, _ in found} == DOMAIN_HOMES.keys()


# the batched kernels write every Hamilton product and squared norm into
# their own planes; the expression forms allocate a plane per operation
IN_PLACE_KERNELS = {"mat2h.mat_mul_many", "mat2h.det_h_many", "hypgeo._apply_matrix_to_reals"}


def test_batched_kernels_call_no_expression_forms():
    called = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and f"{path.stem}.{node.name}" in IN_PLACE_KERNELS:
                called[f"{path.stem}.{node.name}"] = set().union(
                    *(_names(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)))
    assert called.keys() == IN_PLACE_KERNELS
    for where, names in called.items():
        assert not names & {"qmul_planes", "_norm_sq"}, where
        assert "qmul_into" in names, where


def _bodies(module, wanted):
    """The names each function or method of `wanted` in src/qmobius/<module>.py uses."""
    found = {}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
            if where in wanted:
                found[where] = _names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse((SRC / f"{module}.py").read_text()), module)
    assert found.keys() == wanted
    return found


# the scalar Mat2H bodies that run on float components, each pinned bit for bit
# to its operator spelling in tests/test_mat2h.py: an operator call costs an
# isinstance dispatch, two unpacks and a NamedTuple build
COMPONENT_BODIES = {"mat2h.Mat2H.__matmul__", "mat2h.Mat2H.scalar_mul",
                    "mat2h.Mat2H.entry_scale", "mat2h.inverse_form_a", "mat2h.classify"}


def test_scalar_mat2h_bodies_call_no_operator_forms():
    for where, names in _bodies("mat2h", COMPONENT_BODIES).items():
        assert not names & {"_mul_add", "conj", "norm_sq"}, where


# the geometry route's bodies on float components, pinned in tests/test_hypgeo.py:
# the ball's ends and diameter test, and the half-space's ends straight from _arc
GEOMETRY_BODIES = {"hypgeo.geodesic_disc", "hypgeo._over_gap", "hypgeo._direction",
                   "hypgeo._end_beyond", "hypgeo.geodesic_halfspace"}


def test_geometry_bodies_call_no_operator_forms():
    for where, names in _bodies("hypgeo", GEOMETRY_BODIES).items():
        assert not names & {"conj", "im_norm", "norm_sq", "_arc_point"}, where


def test_selftest_keeps_no_hand_rolled_accumulator():
    # x = max(x, err) drops a NaN err and puts the bound far from its value;
    # Suite.worst and Suite.rel keep a running statistic instead
    tree = ast.parse((SRC / "selftest.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name) and node.value.func.id in ("max", "min")
             and {t.id for t in node.targets if isinstance(t, ast.Name)}
             & {a.id for a in node.value.args if isinstance(a, ast.Name)}]
    assert found == []
    # nor a per-case max or min inside a statistic: it drops a NaN that is not
    # its first operand, where worst takes each entry
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("worst", "check", "rel")
             and any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                     and n.func.id in ("max", "min") for a in node.args for n in ast.walk(a))]
    assert found == []
