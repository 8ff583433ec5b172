"""No float enters: a source scan of the package, and the exact type of every
entry of the artifacts the verdicts are read from.

An equality test cannot see a float, because Fraction(1, 2) == 0.5 holds;
so the artifacts are checked by type, not by value.
"""

import ast
import inspect
import pathlib
from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leonard_lab
from leonard_lab.hyper import format_rational, hypergeom_table, hypergeom_terminating
from leonard_lab.leonard import (
    SearchGrid,
    d2_condition,
    is_dual_almost_bipartite,
    lstar_shift_square,
    lstar_shift_square_closed_form,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from leonard_lab.matrices import RationalMatrix, poly_from_roots, tridiagonal_charpoly
from leonard_lab.params import build_params, check_domain
from leonard_lab.racah import (
    affine_maps,
    build_racah_params,
    eval_table_4F3,
    standard_racah_eval,
    verify_racah,
)
from leonard_lab.representations import (
    eval_table_hypergeometric,
    eval_table_recurrence,
    value_row_degree,
    verify_dual_hahn,
)
from leonard_lab.sl2mod import build_even_module, example_pair, terwilliger_catalog
from test_params import fractions_in

PACKAGE = pathlib.Path(leonard_lab.__file__).parent
# Integer-only functions of `math`; everything else there returns floats.
INTEGER_MATH = {"prod", "lcm", "gcd", "comb"}


def float_paths(tree):
    """(line, description) of each way a float could enter the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("float", "round")
        ):
            found.append((node.lineno, f"{node.func.id}() call"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {alias.name}")
                      for alias in node.names if alias.name not in INTEGER_MATH]
    return found


def test_package_source_has_no_float_path():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in float_paths(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_source_scan_sees_each_float_path():
    source = (
        "import math\n"
        "from math import sqrt, gcd\n"
        "x = 0.5 + float(1) + round(2) + math.log(3) + math.prod([])\n"
    )
    assert sorted(float_paths(ast.parse(source))) == [
        (2, "from math import sqrt"),
        (3, "float() call"),
        (3, "literal 0.5"),
        (3, "math.log"),
        (3, "round() call"),
    ]


def assert_exact(values, what):
    bad = [v for v in values if type(v) is not F]
    assert not bad, (what, bad[:3])


def assert_exact_array(p):
    for f in fields(p):
        if f.name == "d":
            continue
        value = getattr(p, f.name)
        assert_exact(value if isinstance(value, tuple) else (value,), f.name)


dual_rationals = fractions_in(-1, 3, 40).filter(lambda x: x > -1)
racah_r = fractions_in(-1, 1, 40).filter(lambda x: -1 < x < 1 and x != 0)
# Integers too, so that an int argument must be turned into a Fraction.
shifts = st.one_of(st.integers(-4, 2), fractions_in(-6, 2, 12))


@settings(deadline=None, max_examples=60)
@given(
    d=st.integers(0, 10),
    r=st.one_of(st.integers(0, 3), dual_rationals),
    s=st.one_of(st.integers(0, 3), dual_rationals),
    shift=shifts,
)
def test_dual_hahn_artifacts_are_exact(d, r, s, shift):
    p = build_params(d, r, s)
    assert_exact_array(p)
    assert_exact(eval_table_hypergeometric(p).values.entries, "3F2 table")
    assert_exact(eval_table_recurrence(p).values.entries, "recurrence table")
    assert_exact(lstar_shift_square(p, shift).entries, "dense product")
    assert_exact(lstar_shift_square_closed_form(p, shift).entries, "dense closed form")
    assert_exact((verify_leonard_pair_square(p, shift).shift,), "report shift")


@settings(deadline=None, max_examples=30)
@given(d=st.integers(0, 10), r=racah_r)
def test_racah_artifacts_are_exact(d, r):
    q = build_racah_params(d, r)
    assert_exact_array(q)
    assert_exact(eval_table_4F3(q).values.entries, "4F3 table")


@pytest.mark.parametrize("call", [
    lambda: build_params(2, 0.1, F(-1, 10)),
    lambda: build_params(2, F(1, 10), -0.1),
    lambda: check_domain(3, 0.5, 0),
    lambda: build_racah_params(2, 0.1),
    lambda: verify_racah(2, 0.1),
    lambda: verify_dual_hahn(2, 0.1, F(-1, 10)),
    lambda: verify_dual_hahn(2, F(1, 10), -0.1),
    lambda: standard_racah_eval(2, 0.1, 1, 1),
    lambda: standard_racah_eval(2, F(1, 10), 1, 0.5),
    lambda: affine_maps(2, 0.1),
    lambda: verify_leonard_pair_square(build_params(2, 1, 0), 0.1),
    lambda: lstar_shift_square(build_params(2, 1, 0), 0.1),
    lambda: lstar_shift_square_closed_form(build_params(2, 1, 0), 0.1),
    lambda: theorem_conditions(build_params(2, 1, 0), 0.1),
    lambda: d2_condition(build_params(2, 1, 0), 0.1),
    lambda: is_dual_almost_bipartite(build_params(2, 1, 0), 0.1),
    lambda: RationalMatrix(1, 1, (0.5,)),
    lambda: RationalMatrix.from_rows([[1, 0.1]]),
    lambda: RationalMatrix.diagonal([0.1]),
    lambda: RationalMatrix.tridiagonal([1, 2], [0.5], [1]),
    lambda: RationalMatrix.diagonal([1, 1]).plus_scalar(0.1),
    lambda: hypergeom_terminating([-1, 0.1], [1], terms=1),
    lambda: hypergeom_terminating([-1], [0.5], terms=1),
    lambda: hypergeom_table([[-1, 0.1]], [[1]], [1], terms=1),
    lambda: hypergeom_table([[-1]], [[0.1]], [1], terms=1),
    lambda: hypergeom_table([[-1]], [[1]], [0.5], terms=1),
    lambda: format_rational(0.1),
    lambda: list(search_square_preserving(SearchGrid(d_values=(2,), r_values=(0.1,)))),
    lambda: list(search_square_preserving(
        SearchGrid(d_values=(2,), r_values=(F(1, 10),), s_values=(0.1,)))),
    lambda: list(search_square_preserving(
        SearchGrid(d_values=(2,), r_values=(F(1, 10),), shift_values=(0.5,)))),
    lambda: poly_from_roots([0.1, 0.2]),
    lambda: tridiagonal_charpoly([0.5, 1], [0.25], [2]),
    lambda: value_row_degree([F(0), 0.5], [F(1), F(2)]),
    lambda: value_row_degree([F(0), F(1, 2)], [1, 0.5]),
], ids=["build_params-r", "build_params-s", "check_domain", "build_racah_params", "verify_racah",
        "verify_dual_hahn-r", "verify_dual_hahn-s",
        "standard_racah_eval-r", "standard_racah_eval-x", "affine_maps",
        "verify_leonard_pair_square", "lstar_shift_square", "lstar_shift_square_closed_form",
        "theorem_conditions", "d2_condition", "is_dual_almost_bipartite",
        "RationalMatrix", "from_rows", "diagonal", "tridiagonal", "plus_scalar",
        "hypergeom_terminating-numerator", "hypergeom_terminating-denominator",
        "hypergeom_table-row", "hypergeom_table-column", "hypergeom_table-denominator",
        "format_rational", "SearchGrid-r", "SearchGrid-s", "SearchGrid-shift",
        "poly_from_roots", "tridiagonal_charpoly", "value_row_degree-node",
        "value_row_degree-value"])
def test_a_float_parameter_is_refused(call):
    """Fraction(0.1) is the binary fraction 3602879701896397/2**55, so a
    float r, s, shift, matrix entry, scalar or hypergeometric parameter would
    be decided exactly, but for the wrong value, and printed as that value."""
    with pytest.raises(TypeError, match=r"got the float -?0\.[15]"):
        call()


def _fraction_parameters(module):
    """{name: [parameter, ...]} for each callable the module exports and its
    parameters whose annotation names Fraction.  The exception classes have
    no signature to read and take no Fraction argument."""
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:
            continue
        named = [key for key, p in parameters.items() if "Fraction" in str(p.annotation)]
        if named:
            found[name] = named
    return found


_P = build_params(2, 1, 0)
# Valid arguments of every root export with a Fraction parameter; the sweep
# puts a float at each such parameter in turn.
SWEPT = {
    "build_params": dict(d=2, r=F(1, 10), s=F(-1, 10)),
    "build_racah_params": dict(d=2, r=F(1, 10)),
    "d2_condition": dict(p=_P, shift=F(1, 10)),
    "format_rational": dict(value=F(1, 10)),
    "hypergeom_table": dict(rows=[[-1]], columns=[[F(1, 10)]], denominators=[F(3, 2)],
                            terms=1),
    "hypergeom_terminating": dict(numerators=[-1, F(1, 10)], denominators=[F(3, 2)],
                                  terms=1),
    "is_dual_almost_bipartite": dict(p=_P, shift=F(1, 10)),
    "lstar_shift_square": dict(p=_P, shift=F(1, 10)),
    "lstar_shift_square_closed_form": dict(p=_P, shift=F(1, 10)),
    "poly_from_roots": dict(roots=[1, F(1, 2)]),
    "RationalMatrix": dict(rows=1, cols=2, entries=(1, F(1, 10))),
    "theorem_conditions": dict(p=_P, shift=F(1, 10)),
    "tridiagonal_charpoly": dict(diag=[1, F(1, 2)], sub=[F(1, 4)], sup=[2]),
    "verify_leonard_pair_square": dict(p=_P, shift=F(1, 10)),
}
# Root exports with a Fraction parameter that the sweep does not call.  An
# export with none (a check of a built array or table, an sl2 builder on ints)
# has nothing to sweep.
EXEMPT = {
    "LeonardPairReport": "a verdict's record, built with a shift already read by exact_rational",
    "ParameterArray": "raw dataclass; build_params and build_racah_params build it from exact r, s",
    "SearchGrid": "raw dataclass; search_square_preserving refuses a float r, s or shift "
                  "when it reads the grid (cases above)",
    "SearchRecord": "a search's record, built from grid values already read by exact_rational",
    "SeriesDivisionError": "raised with a denominator parameter already read exactly",
}
FRACTION_PARAMETERS = _fraction_parameters(leonard_lab)


def _with_float(value):
    """value with its last exact number, however deeply nested, made a float
    of the same value: a guard that reads only the first entry's type misses
    it."""
    if isinstance(value, (int, F)):
        return float(value)
    return [*value[:-1], _with_float(value[-1])]


def test_every_root_export_is_swept_or_exempt():
    assert not set(SWEPT) & set(EXEMPT)
    assert sorted(FRACTION_PARAMETERS) == sorted({*SWEPT, *EXEMPT})


@pytest.mark.parametrize("name, parameter", [
    (name, parameter)
    for name, parameters in sorted(FRACTION_PARAMETERS.items()) if name in SWEPT
    for parameter in parameters
])
def test_a_float_is_refused_at_every_fraction_parameter(name, parameter):
    call, valid = getattr(leonard_lab, name), SWEPT[name]
    call(**valid)
    with pytest.raises(TypeError, match="got the float"):
        call(**{**valid, parameter: _with_float(valid[parameter])})


def test_exact_parameters_of_every_type_are_accepted():
    assert build_params(2, "1/10", 0) == build_params(2, F(1, 10), 0)
    assert build_params(2, 1, 0).r == 1
    assert verify_racah(2, "1/10") == verify_racah(2, F(1, 10))
    assert verify_racah(2, "1/10").ok


def test_sl2mod_artifacts_are_exact():
    for kind in (0, 1):
        for n in range(kind, 12):
            m = build_even_module(kind, n)
            for name in ("e_sq", "f_sq", "h", "casimir"):
                assert_exact(getattr(m, name).entries, (kind, n, name))
            if n % 2:
                for matrix in example_pair(kind, n):
                    assert_exact(matrix.entries, (kind, n, "example pair"))
    for D in range(1, 10):
        for entry in terwilliger_catalog(D):
            assert_exact(entry.adjacency_action.entries, (D, entry.n, "adjacency"))
            assert_exact(entry.dual_adjacency_action.entries, (D, entry.n, "dual adjacency"))
