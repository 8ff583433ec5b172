"""No float enters: a source scan of the package, and the exact type of every
entry of the artifacts the verdicts are read from.

An equality test cannot see a float, because Fraction(1, 2) == 0.5 holds;
so the artifacts are checked by type, not by value.
"""

import ast
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
    ordering_witness,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from leonard_lab.matrices import RationalMatrix
from leonard_lab.params import build_params, check_domain
from leonard_lab.racah import (
    affine_maps,
    build_racah_params,
    eval_table_4F3,
    standard_racah_eval,
    verify_racah,
)
from leonard_lab.representations import eval_table_hypergeometric, eval_table_recurrence
from leonard_lab.sl2mod import build_even_module, example_pair, terwilliger_catalog

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


dual_rationals = st.fractions(min_value=-1, max_value=3, max_denominator=40).filter(
    lambda x: x > -1
)
racah_r = st.fractions(min_value=-1, max_value=1, max_denominator=40).filter(
    lambda x: -1 < x < 1 and x != 0
)
# Integers too, so that an int argument must be turned into a Fraction.
shifts = st.one_of(st.integers(-4, 2), st.fractions(-6, 2, max_denominator=12))


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
    lambda: standard_racah_eval(2, 0.1, 1, 1),
    lambda: standard_racah_eval(2, F(1, 10), 1, 0.5),
    lambda: affine_maps(2, 0.1),
    lambda: verify_leonard_pair_square(build_params(2, 1, 0), 0.1),
    lambda: lstar_shift_square(build_params(2, 1, 0), 0.1),
    lambda: lstar_shift_square_closed_form(build_params(2, 1, 0), 0.1),
    lambda: ordering_witness(build_params(2, 1, 0), 0.1),
    lambda: theorem_conditions(build_params(2, 1, 0), 0.1),
    lambda: d2_condition(build_params(2, 1, 0), 0.1),
    lambda: is_dual_almost_bipartite(build_params(2, 1, 0), 0.1),
    lambda: RationalMatrix.from_rows([[1, 0.1]]),
    lambda: RationalMatrix.diagonal([0.1]),
    lambda: RationalMatrix.tridiagonal([1, 2], [0.5], [1]),
    lambda: RationalMatrix.identity(2).scaled(0.5),
    lambda: RationalMatrix.identity(2).plus_scalar(0.1),
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
], ids=["build_params-r", "build_params-s", "check_domain", "build_racah_params", "verify_racah",
        "standard_racah_eval-r", "standard_racah_eval-x", "affine_maps",
        "verify_leonard_pair_square", "lstar_shift_square", "lstar_shift_square_closed_form",
        "ordering_witness", "theorem_conditions", "d2_condition", "is_dual_almost_bipartite",
        "from_rows", "diagonal", "tridiagonal", "scaled", "plus_scalar",
        "hypergeom_terminating-numerator", "hypergeom_terminating-denominator",
        "hypergeom_table-row", "hypergeom_table-column", "hypergeom_table-denominator",
        "format_rational", "SearchGrid-r", "SearchGrid-s", "SearchGrid-shift"])
def test_a_float_parameter_is_refused(call):
    """Fraction(0.1) is the binary fraction 3602879701896397/2**55, so a
    float r, s, shift, matrix entry, scalar or hypergeometric parameter would
    be decided exactly, but for the wrong value, and printed as that value."""
    with pytest.raises(TypeError, match=r"got the float -?0\.[15]"):
        call()


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
