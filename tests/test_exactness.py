"""No float enters: a source scan of the package, and the exact type of every
entry of the artifacts the verdicts are read from.

An equality test cannot see a float, because Fraction(1, 2) == 0.5 holds;
so the artifacts are checked by type, not by value.
"""

import ast
import pathlib
from dataclasses import fields
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

import leonard_lab
from leonard_lab.leonard import (
    lstar_shift_square,
    lstar_shift_square_closed_form,
    verify_leonard_pair_square,
)
from leonard_lab.params import build_params
from leonard_lab.racah import build_racah_params, eval_table_4F3
from leonard_lab.representations import eval_table_hypergeometric, eval_table_recurrence

PACKAGE = pathlib.Path(leonard_lab.__file__).parent
# Integer-only functions of `math`; everything else there returns floats.
INTEGER_MATH = {"prod", "lcm", "gcd", "comb", "ceil"}


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
