import json
import math
import random
from collections import Counter
from fractions import Fraction as F
from dataclasses import fields, replace
from functools import lru_cache, partial
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leonard_lab import representations
from leonard_lab.cli import main
from leonard_lab.hyper import hypergeom_terminating
from leonard_lab.matrices import RationalMatrix, poly_from_roots, tridiagonal_charpoly
from leonard_lab.params import build_params, check_closed_forms
from leonard_lab.racah import (
    build_racah_params,
    check_barred_recurrence,
    check_racah_orthogonality,
    check_table_matches_permuted_dual,
    eval_table_4F3,
)
from leonard_lab.representations import (
    DualHahnVerdict,
    ValueTable,
    _gram_orthogonality,
    _recurrence_holds,
    check_basis_consistency,
    check_degree_invariant,
    check_difference_eq,
    check_orthogonality,
    check_top_row,
    decide_dual_hahn,
    eval_table_hypergeometric,
    eval_table_recurrence,
    matrix_L_u_basis,
    matrix_L_ustar_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
    value_row_degree,
    verify_dual_hahn,
)
from test_params import GRID_RS, built_when_run, fractions_in, nonzero


def divided_differences(nodes, values):
    """Full triangle: row m holds all order-m divided differences (the
    Fraction oracle for `value_row_degree`)."""
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    triangle = [list(values)]
    m = 1
    while len(triangle[-1]) > 1:
        prev = triangle[-1]
        triangle.append(
            [
                (prev[t + 1] - prev[t]) / (nodes[t + m] - nodes[t])
                for t in range(len(prev) - 1)
            ]
        )
        m += 1
    return triangle


def grid(d_max=5):
    return product(range(0, d_max + 1), GRID_RS, GRID_RS)


def test_table_d1_frozen():
    p = build_params(1, F(1, 2), F(-1, 2))
    table = eval_table_hypergeometric(p)
    assert table.values.to_rows() == [[1, 1], [1, -3]]


def test_table_d2_frozen_row():
    p = build_params(2, F(1, 2), F(-1, 2))
    table = eval_table_hypergeometric(p)
    assert list(table.values.row(2)) == [1, F(-5, 3), 5]
    assert list(table.values.row(0)) == [1, 1, 1]
    assert [table.at(i, 0) for i in range(3)] == [1, 1, 1]


def test_recurrence_matches_hypergeometric_on_grid():
    for d, r, s in grid():
        p = build_params(d, r, s)
        assert eval_table_hypergeometric(p).values == eval_table_recurrence(p).values, (
            d, r, s,
        )


def test_recurrence_first_step_is_one_at_theta0():
    # (theta_0 - a_0) / b_0 = 1 because a_0 = theta_0 - b_0
    for d, r, s in [(3, F(1, 4), F(3, 4)), (5, F(2), F(-1, 2))]:
        p = build_params(d, r, s)
        assert eval_table_recurrence(p).at(1, 0) == 1


def test_top_row_examples():
    for d, r, s in [(2, F(1, 2), F(-1, 2)), (1, F(1, 2), F(-1, 2)), (0, F(1, 4), F(2))]:
        p = build_params(d, r, s)
        assert check_top_row(p, eval_table_hypergeometric(p))


def test_orthogonality_worked_instance():
    p = build_params(2, F(1, 2), F(-1, 2))
    table = eval_table_hypergeometric(p)
    total = sum(
        (table.at(2, h) ** 2 * p.k_star[h] for h in range(3)), F(0)
    )
    assert total == 16
    assert p.nu / p.k[2] == 16
    zero = sum(
        (table.at(0, h) * table.at(1, h) * p.k_star[h] for h in range(3)), F(0)
    )
    assert zero == 0
    assert check_orthogonality(p, table)


def test_difference_eq_worked_instance():
    p = build_params(1, F(1, 2), F(-1, 2))
    assert p.b_star[0] == F(-1, 4)
    assert p.a_star[0] == F(1, 4)
    table = eval_table_hypergeometric(p)
    # i=1, j=0: theta*_1 u_1(theta_0) = b*_0 u_1(theta_1) + a*_0 u_1(theta_0)
    assert table.at(1, 0) == p.b_star[0] * table.at(1, 1) + p.a_star[0] * table.at(1, 0)
    assert check_difference_eq(p, table)


def test_checks_hold_on_grid():
    for d, r, s in grid(4):
        p = build_params(d, r, s)
        table = eval_table_hypergeometric(p)
        assert check_top_row(p, table), (d, r, s)
        assert check_orthogonality(p, table), (d, r, s)
        assert check_difference_eq(p, table), (d, r, s)
        assert check_degree_invariant(p, table), (d, r, s)


def test_divided_differences_detect_degree():
    nodes = [F(0), F(1), F(3), F(6)]
    cubic = [x**3 for x in nodes]
    assert value_row_degree(nodes, cubic) == 3
    quadratic = [2 * x**2 - x + 5 for x in nodes]
    assert value_row_degree(nodes, quadratic) == 2
    constant = [F(7)] * 4
    assert value_row_degree(nodes, constant) == 0
    assert value_row_degree(nodes, [F(0)] * 4) == -1
    assert value_row_degree([0, 1, 2, 3], [1, 3, 5, 7]) == 1  # int nodes and values
    triangle = divided_differences(nodes, quadratic)
    assert all(v == 0 for v in triangle[3])


def test_matrices_frozen_examples():
    p = build_params(1, F(-1, 2), F(1, 2))
    assert matrix_L_u_basis(p) == RationalMatrix.from_rows(
        [[F(1, 2), F(1, 2)], [F(3, 2), F(3, 2)]]
    )
    assert matrix_Lstar_u_basis(p) == RationalMatrix.diagonal([0, 1])

    p2 = build_params(2, F(1, 2), F(-1, 2))
    assert matrix_L_u_basis(p2) == RationalMatrix.tridiagonal(
        diag=[3, 4, 1], sub=[3, F(1, 2)], sup=[F(3, 2), 5]
    )
    assert matrix_L_ustar_basis(p2) == RationalMatrix.diagonal([6, 2, 0])
    assert matrix_Lstar_ustar_basis(p2) == RationalMatrix.tridiagonal(
        diag=[F(3, 4), F(3, 4), F(3, 2)],
        sub=[F(-3, 4), F(-1, 3)],
        sup=[F(-5, 12), F(-3, 2)],
    )


def test_matrices_d0():
    p = build_params(0, F(1, 2), F(1, 2))
    assert matrix_L_u_basis(p) == RationalMatrix.from_rows([[0]])
    assert matrix_Lstar_u_basis(p) == RationalMatrix.from_rows([[0]])
    assert matrix_L_ustar_basis(p) == RationalMatrix.from_rows([[0]])
    assert matrix_Lstar_ustar_basis(p) == RationalMatrix.from_rows([[0]])


def test_ustar_tridiagonal_factor_is_irreducible_on_grid():
    from test_leonard import is_irreducible_tridiagonal

    for d, r, s in grid(4):
        if d == 0:
            continue
        p = build_params(d, r, s)
        assert is_irreducible_tridiagonal(matrix_Lstar_ustar_basis(p)), (d, r, s)


def test_basis_consistency_on_grid():
    for d, r, s in grid(4):
        assert check_basis_consistency(build_params(d, r, s)), (d, r, s)


def test_json_and_csv_export(capsys):
    argv = ["table", "--d", "1", "--r", "1/2", "--s", "-1/2"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["table"] == [["1", "1"], ["1", "-3"]]
    assert main(argv + ["--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "i\\theta_j,2,0"
    assert lines[2] == "1,1,-3"


# -- fast paths against the code they replaced --------------------------------

dual_rationals = fractions_in(-1, 3, 60).filter(lambda x: x > -1)
racah_r = fractions_in(-1, 1, 60).filter(lambda x: -1 < x < 1 and x != 0)


def array_builders(d_max):
    """Builders, as partials, of dual Hahn arrays at drawn (d, r, s) and
    barred arrays at drawn (d, r)."""
    return st.one_of(
        st.builds(partial, st.just(build_params), st.integers(0, d_max), dual_rationals,
                  dual_rationals),
        st.builds(partial, st.just(build_racah_params), st.integers(0, d_max), racah_r),
    )


def parameter_arrays(d_max):
    """Dual Hahn arrays at drawn (d, r, s) and barred arrays at drawn (d, r)."""
    return array_builders(d_max).map(lambda build: build())


def orthogonality_oracle(p, table):
    """The Fraction triple loop that `check_orthogonality` replaced."""
    d = p.d
    for i in range(d + 1):
        for j in range(i, d + 1):
            total = F(0)
            for h in range(d + 1):
                total += table.at(i, h) * table.at(j, h) * p.k_star[h]
            expected = p.nu / p.k[i] if i == j else F(0)
            if total != expected:
                return False
    return True


def basis_consistency_oracle(p):
    """The Faddeev-LeVerrier version of `check_basis_consistency`."""
    for matrix, roots in ((matrix_L_u_basis(p), p.theta),
                          (matrix_Lstar_ustar_basis(p), p.theta_star)):
        if matrix.trace() != sum(roots, F(0)):
            return False
        if matrix.charpoly() != poly_from_roots(roots):
            return False
    return True


def degree_oracle(nodes, values):
    """`value_row_degree` as it was: the Fraction divided-difference triangle."""
    degree = -1
    for m, row in enumerate(divided_differences(nodes, values)):
        if any(v != 0 for v in row):
            degree = m
    return degree


def full_degree_read(p, table):
    """`value_row_degree` on every integer row: the full loop that
    `check_degree_invariant` falls back to when its row 0 test has no
    premise."""
    rows, _ = table.int_rows
    return all(value_row_degree(p.theta, row) == i for i, row in enumerate(rows))


def with_entry(table, i, h, value):
    rows = table.values.to_rows()
    rows[i][h] = value
    return ValueTable(RationalMatrix.from_rows(rows))


@settings(deadline=None, max_examples=30)
@given(parameter_arrays(12))
def test_continuant_matches_charpoly_on_both_arrays(p):
    d = p.d
    assert tridiagonal_charpoly(p.a, p.b[:d], p.c[1:]) == matrix_L_u_basis(p).charpoly()
    assert (
        tridiagonal_charpoly(p.a_star, p.b_star[:d], p.c_star[1:])
        == matrix_Lstar_ustar_basis(p).charpoly()
    )
    assert check_basis_consistency(p) == basis_consistency_oracle(p) is True


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_integer_orthogonality_matches_triple_loop(data):
    p = data.draw(parameter_arrays(10))
    # The recurrence route evaluates the polynomials of either array at its nodes.
    table = eval_table_recurrence(p)
    assert check_orthogonality(p, table) == orthogonality_oracle(p, table) is True
    i = data.draw(st.integers(0, p.d))
    h = data.draw(st.integers(0, p.d))
    delta = data.draw(fractions_in(-3, 3, 20))
    # delta = -2 u flips the sign of the entry, which leaves sum_h u_i^2 k*_h
    # unchanged; any other nonzero delta changes it.
    assume(delta != 0 and delta != -2 * table.at(i, h))
    perturbed = with_entry(table, i, h, table.at(i, h) + delta)
    assert check_orthogonality(p, perturbed) == orthogonality_oracle(p, perturbed) is False
    # A sign flip in a row i >= 1 keeps every diagonal sum and breaks the
    # off-diagonal sum with row 0 by -2 u_i(theta_h) k*_h.
    if p.d >= 1:
        i = data.draw(st.integers(1, p.d))
        if table.at(i, h) != 0:
            flipped = with_entry(table, i, h, -table.at(i, h))
            assert (
                check_orthogonality(p, flipped) == orthogonality_oracle(p, flipped) is False
            )


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_integer_scaled_degree_matches_divided_differences(data):
    n = data.draw(st.integers(1, 7))
    nodes = data.draw(
        st.lists(fractions_in(-9, 9, 12), min_size=n, max_size=n,
                 unique=True)
    )
    # Values of a drawn polynomial of degree < n, so every degree occurs.
    coeffs = data.draw(st.lists(fractions_in(-4, 4, 12), max_size=n))
    values = [sum((c * x**e for e, c in enumerate(coeffs)), F(0)) for x in nodes]
    assert value_row_degree(nodes, values) == degree_oracle(nodes, values)
    # The same values over their common denominator, as integers.
    den = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    assert value_row_degree(nodes, ints) == degree_oracle(nodes, values)


def test_integer_scaled_degree_keeps_the_errors():
    with pytest.raises(ValueError):
        value_row_degree([F(0), F(1)], [F(1)])
    # A repeated node: the Fraction triangle divides by zero, the integer one
    # rejects the nodes by name (see the test below).
    with pytest.raises(ZeroDivisionError):
        degree_oracle([F(0), F(1, 2), F(1, 2)], [F(1), F(2), F(3)])
    with pytest.raises(ValueError, match="1/2 is repeated"):
        value_row_degree([F(0), F(1, 2), F(1, 2)], [F(1), F(2), F(3)])


@settings(deadline=None, max_examples=30)
@given(parameter_arrays(10))
def test_integer_scaled_degree_matches_on_table_rows(p):
    table = eval_table_recurrence(p)
    int_rows, _ = table.int_rows
    for i in range(p.d + 1):
        row = table.values.row(i)
        assert value_row_degree(p.theta, row) == degree_oracle(p.theta, row) == i
        # The integer row, as `check_degree_invariant`'s fallback feeds it.
        int_row = int_rows[i]
        assert value_row_degree(p.theta, int_row) == degree_oracle(
            p.theta, [F(u) for u in int_row]) == i


# -- integer tables and three-term kernels against the Fraction loops ---------


def hypergeometric_table_oracle(p):
    """`eval_table_hypergeometric` as it was: every parameter built as new
    Fractions for every entry."""
    d, r, s = p.d, p.r, p.s
    return ValueTable(RationalMatrix.from_rows([
        [hypergeom_terminating([F(-i), F(-j), j - r - s - 2 * d - 1], [-s - d, F(-d)], terms=i)
         for j in range(d + 1)]
        for i in range(d + 1)
    ]))


def recurrence_table_oracle(p):
    """The Fraction recurrence that `eval_table_recurrence` replaced."""
    d = p.d
    rows = [[F(1)] * (d + 1)]
    for i in range(d):
        prev = rows[-1]
        prev2 = rows[-2] if i >= 1 else None
        row = []
        for j in range(d + 1):
            acc = (p.theta[j] - p.a[i]) * prev[j]
            if i >= 1:
                acc -= p.c[i] * prev2[j]
            row.append(acc / p.b[i])
        rows.append(row)
    return ValueTable(RationalMatrix.from_rows(rows))


def difference_eq_oracle(p, table):
    """The Fraction loop that `check_difference_eq` replaced."""
    d = p.d
    for i in range(d + 1):
        for j in range(d + 1):
            rhs = p.a_star[j] * table.at(i, j)
            if j < d:
                rhs += p.b_star[j] * table.at(i, j + 1)
            if j > 0:
                rhs += p.c_star[j] * table.at(i, j - 1)
            if p.theta_star[i] * table.at(i, j) != rhs:
                return False
    return True


def top_row_oracle(p, table):
    """The Fraction loop that `check_top_row` replaced."""
    d = p.d
    for j in range(d + 1):
        rhs = p.a[d] * table.at(d, j)
        if d >= 1:
            rhs += p.c[d] * table.at(d - 1, j)
        if p.theta[j] * table.at(d, j) != rhs:
            return False
    return True


two_digit = fractions_in(-1, 3, 99).filter(lambda x: x > -1)


def kernel_cases(test):
    """Dual Hahn arrays at d <= 16, with s = -r or with free (r, s) up to
    two-digit denominators; d = 0, 1 and 2, where the boundary zeros b_d and
    c_0 sit next to every entry, are always run.  `at` picks the perturbed
    entry modulo d + 1."""
    d = st.integers(0, 16)
    builders = st.one_of(
        st.builds(lambda d, r: partial(build_params, d, r, -r), d,
                  two_digit.filter(lambda x: x < 1)),
        st.builds(partial, st.just(build_params), d, two_digit, two_digit),
    )
    test = built_when_run(test)
    for d, r, s in [(0, F(3, 7), F(-3, 7)), (1, F(-5, 11), F(5, 11)), (2, F(13, 17), F(2, 3))]:
        test = example(build=partial(build_params, d, r, s), at=(d, 0), delta=F(1, 2))(test)
    at = st.tuples(st.integers(0, 16), st.integers(0, 16))
    return settings(deadline=None, max_examples=40)(
        given(build=builders, at=at, delta=nonzero)(test))


def replaced(values, index, delta):
    values = list(values)
    values[index] += delta
    return tuple(values)


@kernel_cases
def test_hoisted_3f2_parameters_match_per_entry_fractions(p, at, delta):
    table = eval_table_hypergeometric(p)
    assert table.values == hypergeometric_table_oracle(p).values
    assert all(type(v) is F for v in table.values.entries)
    # r enters only the hoisted column parameter; a changed r moves row 1
    # off theta_0 on both sides.
    q = replace(p, r=p.r + delta)
    assert eval_table_hypergeometric(q).values == hypergeometric_table_oracle(q).values
    assert (eval_table_hypergeometric(q).values == table.values) is (p.d == 0)


@kernel_cases
def test_integer_recurrence_matches_fraction_recurrence(p, at, delta):
    table = eval_table_recurrence(p)
    assert table.values == recurrence_table_oracle(p).values
    assert all(type(v) is F for v in table.values.entries)
    # A changed a_i or c_i changes row i + 1 on both routes.
    i = at[0] % (p.d + 1)
    if i < p.d:
        for field in ("a", "c") if i else ("a",):
            q = replace(p, **{field: replaced(getattr(p, field), i, delta)})
            assert eval_table_recurrence(q).values == recurrence_table_oracle(q).values
            assert eval_table_recurrence(q).values != table.values


@kernel_cases
def test_integer_difference_equation_matches_fraction_loop(p, at, delta):
    table = eval_table_hypergeometric(p)
    assert check_difference_eq(p, table) == difference_eq_oracle(p, table) is True
    i, j = (x % (p.d + 1) for x in at)
    # theta*_i u_i(theta_j) == a*_j u_i(theta_j) with no neighbours at d = 0,
    # and a*_0 == theta*_0 there: no table entry can break it.  A changed
    # coefficient can, at every d.
    if p.d >= 1:
        perturbed = with_entry(table, i, j, table.at(i, j) + delta)
        assert check_difference_eq(p, perturbed) == difference_eq_oracle(p, perturbed) is False
    q = replace(p, a_star=replaced(p.a_star, j, delta))
    assert check_difference_eq(q, table) == difference_eq_oracle(q, table) is False


@kernel_cases
def test_integer_top_row_matches_fraction_loop(p, at, delta):
    table = eval_table_hypergeometric(p)
    assert check_top_row(p, table) == top_row_oracle(p, table) is True
    d, j = p.d, at[1] % (p.d + 1)
    # Row d - 1 enters through c_d != 0; at d = 0 the identity reads
    # theta_0 u = a_0 u with a_0 == theta_0, so only a coefficient breaks it.
    if d >= 1:
        perturbed = with_entry(table, d - 1, j, table.at(d - 1, j) + delta)
        assert check_top_row(p, perturbed) == top_row_oracle(p, perturbed) is False
    q = replace(p, a=replaced(p.a, d, delta))
    assert check_top_row(q, table) == top_row_oracle(q, table) is False


def test_value_row_degree_names_a_repeated_node():
    for nodes in ([F(0), F(1, 2), F(1, 2)], [F(1, 2), F(-3), F(0), F(1, 2)]):
        with pytest.raises(ValueError, match="1/2 is repeated") as excinfo:
            value_row_degree(nodes, [F(v) for v in range(len(nodes))])
        assert not isinstance(excinfo.value, ZeroDivisionError)


# -- integer charpoly comparison and degree triangle on true and false inputs --


def array_cases(d_max, max_examples):
    """Both arrays at d <= d_max, with d = 0, 1 and 2 always run for each;
    `at` picks an index modulo d + 1 (modulo d for a coupling)."""

    def decorate(test):
        test = built_when_run(test)
        for d in (0, 1, 2):
            for build in (partial(build_params, d, F(3, 7), F(-5, 11)),
                          partial(build_racah_params, d, F(-5, 11))):
                test = example(build=build, at=(d, 0), delta=F(1, 2))(test)
        at = st.tuples(st.integers(0, 16), st.integers(0, 16))
        return settings(deadline=None, max_examples=max_examples)(
            given(build=array_builders(d_max), at=at, delta=nonzero)(test)
        )

    return decorate


# The Faddeev-LeVerrier oracle is O(d^4) in Fractions, hence d <= 12.
@array_cases(d_max=12, max_examples=25)
def test_integer_basis_consistency_rejects_what_the_oracle_rejects(p, at, delta):
    assert check_basis_consistency(p) == basis_consistency_oracle(p) is True
    d, i = p.d, at[0] % (p.d + 1)
    moved = []
    for diag, sub, sup, roots in (("a", "b", "c", "theta"),
                                  ("a_star", "b_star", "c_star", "theta_star")):
        # A diagonal entry moves the trace; a root moves the root multiset.
        moved.append(replace(p, **{diag: replaced(getattr(p, diag), i, delta)}))
        moved.append(replace(p, **{roots: replaced(getattr(p, roots), i, delta)}))
        # A coupling b_j c_{j+1} (j < d) moves the x^(d-1) coefficient.
        if d >= 1:
            j = at[1] % d
            moved.append(replace(p, **{sub: replaced(getattr(p, sub), j, delta)}))
            moved.append(replace(p, **{sup: replaced(getattr(p, sup), j + 1, delta)}))
    for q in moved:
        assert check_basis_consistency(q) == basis_consistency_oracle(q) is False


@array_cases(d_max=16, max_examples=40)
def test_degree_triangle_agrees_with_divided_differences_on_perturbed_rows(p, at, delta):
    table = eval_table_recurrence(p)
    oracle = lambda t: all(degree_oracle(p.theta, t.values.row(i)) == i for i in range(p.d + 1))
    assert check_degree_invariant(p, table) == oracle(table) is True
    i, h = (x % (p.d + 1) for x in at)
    perturbed = with_entry(table, i, h, table.at(i, h) + delta)
    assert check_degree_invariant(p, perturbed) == oracle(perturbed)
    # A single changed value adds delta times a Lagrange polynomial of
    # degree d, so a row i < d takes degree d.
    if i < p.d:
        assert check_degree_invariant(p, perturbed) is False
    # A whole row of zeros has degree -1; a table of rows 0 has degree 0.
    assert check_degree_invariant(p, with_row(table, i, [F(0)] * (p.d + 1))) is False
    flat = ValueTable(RationalMatrix.from_rows([[F(1)] * (p.d + 1)] * (p.d + 1)))
    assert check_degree_invariant(p, flat) == oracle(flat) == (p.d == 0)


def with_row(table, i, row):
    rows = table.values.to_rows()
    rows[i] = row
    return ValueTable(RationalMatrix.from_rows(rows))


def test_degree_invariant_names_a_repeated_node():
    p = build_params(3, F(1, 2), F(1, 3))
    q = replace(p, theta=(p.theta[0],) + p.theta[:-1])
    with pytest.raises(ValueError, match="is repeated"):
        check_degree_invariant(q, eval_table_recurrence(p))


# -- orthogonality and degree from the recurrence, against the full loops ----


def outcome(check, p, table):
    """check(p, table), or the class and message of the error it raises."""
    try:
        return check(p, table)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def scaled_columns(table, factors):
    """Column j times factors[j]; every column still obeys the recurrence,
    which is linear in it."""
    return ValueTable(RationalMatrix.from_rows(
        [[u * f for u, f in zip(row, factors)] for row in table.values.to_rows()]
    ))


MUTATIONS = ("none", "k", "zero k", "k*", "nu", "b", "c", "entry", "flipped row",
             "rows combined", "scaled column", "scaled table", "zero table", "repeated theta")


def mutated(p, table, mutation, i, delta):
    """(array, table) with one change; i is taken modulo the index range."""
    d = p.d
    i %= d + 1
    if mutation in ("k", "k*", "b", "c"):
        field = {"k*": "k_star"}.get(mutation, mutation)
        return replace(p, **{field: replaced(getattr(p, field), i, delta)}), table
    if mutation == "zero k":
        return replace(p, k=p.k[:i] + (F(0),) + p.k[i + 1 :]), table
    if mutation == "nu":
        return replace(p, nu=p.nu + delta), table
    if mutation == "entry":
        h = (3 * i + 1) % (d + 1)
        return p, with_entry(table, i, h, table.at(i, h) + delta)
    if mutation == "flipped row":
        return p, with_row(table, i, [-u for u in table.values.row(i)])
    if mutation == "rows combined" and d >= 2:
        # Row j += delta row m for rows j != m >= 1: row 0 of the Gram matrix
        # stays, row j's norm moves, and the recurrence breaks.
        j = 1 + i % d
        m = 1 + j % d
        row = [u + delta * v for u, v in zip(table.values.row(j), table.values.row(m))]
        return p, with_row(table, j, row)
    if mutation == "scaled column":
        return p, scaled_columns(table, [delta if j == i else 1 for j in range(d + 1)])
    if mutation == "scaled table":
        return p, scaled_columns(table, [delta] * (d + 1))
    if mutation == "zero table":
        return p, scaled_columns(table, [0] * (d + 1))
    if mutation == "repeated theta" and d >= 1:
        # Column 0 becomes column 1 with its node, so the recurrence holds.
        rows = [[row[1], *row[1:]] for row in table.values.to_rows()]
        return replace(p, theta=(p.theta[1],) + p.theta[1:]), ValueTable(
            RationalMatrix.from_rows(rows))
    return p, table


@settings(deadline=None, max_examples=150)
@given(build=array_builders(10), mutation=st.sampled_from(MUTATIONS),
       i=st.integers(0, 10), delta=nonzero)
@example(build=partial(build_params, 3, F(2, 7), F(1, 3)), mutation="repeated theta", i=0,
         delta=F(1))
@example(build=partial(build_racah_params, 4, F(-3, 5)), mutation="flipped row", i=2,
         delta=F(1))
def test_recurrence_paths_decide_as_the_full_loops(build, mutation, i, delta):
    p = build()
    q, table = mutated(p, eval_table_recurrence(p), mutation, i, delta)
    orthogonal = outcome(check_orthogonality, q, table)
    assert orthogonal == outcome(_gram_orthogonality, q, table)
    assert orthogonal == outcome(orthogonality_oracle, q, table)
    degree = outcome(check_degree_invariant, q, table)
    assert degree == outcome(full_degree_read, q, table)
    if degree in (True, False):
        assert degree == all(degree_oracle(q.theta, table.values.row(n)) == n
                             for n in range(q.d + 1))
    if mutation in ("none", "k*", "nu", "scaled column", "scaled table", "zero table",
                    "repeated theta"):
        # These keep every premise, so row 0 decides on both checks.
        assert _recurrence_holds(q, table)
    # A row's signs flipped breaks the recurrence and keeps both identities.
    if mutation in ("none", "flipped row"):
        assert orthogonal is degree is True
    if mutation == "scaled table":
        assert degree is True


def test_each_premise_of_the_row_zero_test_is_needed():
    """Tables on which row 0 of the Gram matrix, or of the table, looks
    right while the full check fails; a path that skipped the premise named
    would pass them."""
    p = build_params(3, F(2, 7), F(-2, 7))
    table = eval_table_recurrence(p)
    assert check_orthogonality(p, table) and check_degree_invariant(p, table)

    def row_zero_passes(q, t):
        return _recurrence_holds(q, t) and _gram_orthogonality(q, t, rows=1)

    # The symmetrizer k_i b_i == k_{i+1} c_{i+1}: k_2 doubled leaves row 0.
    q = replace(p, k=replaced(p.k, 2, p.k[2]))
    assert row_zero_passes(q, table)
    assert not check_orthogonality(q, table) and not orthogonality_oracle(q, table)
    # The recurrence: row 2 += row 1 keeps row 0 of G, not row 2.
    combined = with_row(table, 2, [u + v for u, v in zip(table.values.row(2),
                                                         table.values.row(1))])
    assert _gram_orthogonality(p, combined, rows=1) and not _recurrence_holds(p, combined)
    assert not check_orthogonality(p, combined) and not orthogonality_oracle(p, combined)
    # The norm: nu doubled keeps every premise and every zero of row 0.
    q = replace(p, nu=2 * p.nu)
    assert _recurrence_holds(q, table) and not check_orthogonality(q, table)
    # The zeros of row 0: moving weight from k*_2 to k*_1 keeps every premise
    # and the norm sum_h u_0^2 k*_h, as u_0 == 1, but not sum_h u_1 k*_h.
    q = replace(p, k_star=(p.k_star[0], p.k_star[1] + 1, p.k_star[2] - 1, *p.k_star[3:]))
    assert _recurrence_holds(q, table) and not check_orthogonality(q, table)
    assert not orthogonality_oracle(q, table)
    # b_i != 0: with b = c = 0 and a = theta, the identity table obeys the
    # recurrence, and the symmetrizer holds as 0 == 0; row 0 of G is
    # (k*_0, 0, ..., 0) == (nu / k_0, 0, ..., 0), but k*_1 != nu / k_1.
    zeros = (F(0),) * (p.d + 1)
    q = replace(p, a=p.theta, b=zeros, c=zeros, nu=p.k[0] * p.k_star[0])
    identity = ValueTable(RationalMatrix.diagonal([1] * (p.d + 1)))
    assert row_zero_passes(q, identity) and p.k_star[1] != q.nu / p.k[1]
    assert not check_orthogonality(q, identity) and not orthogonality_oracle(q, identity)
    # k_i != 0 needs no test: a zero k_0 raises on both paths, and a zero
    # k_i at i >= 1 breaks the symmetrizer next to it, since b != 0 and c != 0.
    for i in range(p.d + 1):
        q = replace(p, k=p.k[:i] + (F(0),) + p.k[i + 1 :])
        assert outcome(check_orthogonality, q, table) == outcome(orthogonality_oracle, q, table)
    zero_k0 = replace(p, k=(F(0),) + p.k[1:])
    assert outcome(check_orthogonality, zero_k0, table)[0] is ZeroDivisionError
    # The recurrence, for the degrees: a changed entry of row 1 gives row 1
    # degree d and leaves row 0 a nonzero constant.
    moved = with_entry(table, 1, 2, table.at(1, 2) + 1)
    assert not check_degree_invariant(p, moved) and not _recurrence_holds(p, moved)
    # Distinct nodes: theta_0 := theta_1 with column 0 := column 1 keeps the
    # recurrence and row 0, and the triangle names the repeated node.
    q, repeated = mutated(p, table, "repeated theta", 0, F(1))
    assert _recurrence_holds(q, repeated)
    with pytest.raises(ValueError, match="is repeated"):
        check_degree_invariant(q, repeated)
    # Row 0 a nonzero constant: scaling one column keeps the recurrence and
    # moves row 0 off a constant; a zero table is constant but zero.
    for factors in ([2, 1, 1, 1], [0] * 4):
        scaled = scaled_columns(table, factors)
        assert _recurrence_holds(p, scaled)
        assert not check_degree_invariant(p, scaled)
        assert not full_degree_read(p, scaled)


def test_each_table_is_put_over_one_denominator_once(monkeypatch):
    calls = Counter()
    original = representations._over_common_denominator

    def counted(values):
        calls[tuple(values)] += 1
        return original(values)

    def lines_of(table):
        return ([table.values.row(i) for i in range(table.d + 1)]
                + [table.values.column(j) for j in range(table.d + 1)])

    p = build_params(5, F(2, 7), F(-2, 7))
    q = build_racah_params(5, F(2, 7))
    table, table4 = eval_table_hypergeometric(p), eval_table_4F3(q)
    monkeypatch.setattr(representations, "_over_common_denominator", counted)
    for check in (check_top_row, check_difference_eq, check_orthogonality,
                  check_degree_invariant, _gram_orthogonality, full_degree_read):
        assert check(p, table)
    assert check_racah_orthogonality(q, table4) and check_barred_recurrence(q, table4)
    for t in (table, table4):
        assert calls[t.values.entries] == 1
        assert not any(calls[line] for line in lines_of(t))


def test_each_table_decides_its_full_recurrence_once(monkeypatch):
    """The degree and orthogonality checks of one table, and the barred
    orthogonality and recurrence fields of one 4F3 table, share one
    full-range three-term test."""
    calls = []
    original = representations._three_term_holds

    def counted(lines, eigenvalues, a, b, c, at):
        calls.append(len(at))
        return original(lines, eigenvalues, a, b, c, at)

    p = build_params(5, F(2, 7), F(-2, 7))
    q = build_racah_params(5, F(2, 7))
    table, table4 = eval_table_hypergeometric(p), eval_table_4F3(q)
    monkeypatch.setattr(representations, "_three_term_holds", counted)
    assert check_degree_invariant(p, table) and check_orthogonality(p, table)
    assert calls == [p.d + 1]
    assert check_racah_orthogonality(q, table4) and check_barred_recurrence(q, table4)
    assert calls == [p.d + 1] * 2
    # The top-row check tests row d alone, and reads no verdict of the range.
    assert check_top_row(p, table) and calls == [p.d + 1] * 2 + [1]


@pytest.mark.parametrize("first", ["barred", "dual"])
def test_one_table_checked_against_two_arrays_gets_each_arrays_verdict(first):
    """One 4F3 table against its barred array, which its columns obey, and
    the dual Hahn array of the same d, whose nodes they do not: each call
    gets the verdict of its own array, whichever array came first, and the
    degree check follows it (row 0 is constant, but the rows are not of
    exact degree at the dual Hahn nodes)."""
    p = build_params(4, F(2, 7), F(-2, 7))
    q = build_racah_params(4, F(2, 7))
    # On a fresh table each time, no verdict is kept from an earlier call.
    assert _recurrence_holds(q, eval_table_4F3(q)) and not _recurrence_holds(p, eval_table_4F3(q))
    table = eval_table_4F3(q)
    order = (q, p) if first == "barred" else (p, q)
    for array in order + order:
        assert _recurrence_holds(array, table) is (array is q)
        assert check_degree_invariant(array, table) is (array is q)


@st.composite
def junk_tables(draw):
    """A table of arbitrary rationals, of any shape up to 6x6."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    size = rows * cols
    entries = draw(st.lists(st.fractions(max_denominator=10**6), min_size=size, max_size=size))
    return ValueTable(RationalMatrix(rows, cols, tuple(entries)))


@settings(deadline=None, max_examples=40)
@given(build=array_builders(12), junk=junk_tables())
def test_a_table_is_its_integer_rows_over_the_lcm_of_its_denominators(build, junk):
    p = build()
    value_table = eval_table_4F3 if build.func is build_racah_params else eval_table_hypergeometric
    for table in (value_table(p), eval_table_recurrence(p), junk):
        rows, den = table.int_rows
        entries = table.values.entries
        assert den == math.lcm(*(x.denominator for x in entries))
        assert [len(row) for row in rows] == [table.values.cols] * table.values.rows
        assert all(type(u) is int and u == table.at(i, j) * den
                   for i, row in enumerate(rows) for j, u in enumerate(row))
        assert table.int_columns == tuple(
            tuple(u * den for u in table.values.column(j)) for j in range(table.values.cols))


# -- the table shape contract --------------------------------------------------


def table_checks():
    """Each public table check at d = 3 as (call(table), the table it passes)."""
    p = build_params(3, F(2, 7), F(-2, 7))
    q = build_racah_params(3, F(2, 7))
    dual, barred = eval_table_recurrence(p), eval_table_4F3(q)
    return {
        "check_top_row": (partial(check_top_row, p), dual),
        "check_orthogonality": (partial(check_orthogonality, p), dual),
        "check_difference_eq": (partial(check_difference_eq, p), dual),
        "check_degree_invariant": (partial(check_degree_invariant, p), dual),
        "check_table_matches_permuted_dual":
            (partial(check_table_matches_permuted_dual, p, q), barred),
        "check_racah_orthogonality": (partial(check_racah_orthogonality, q), barred),
        "check_barred_recurrence": (partial(check_barred_recurrence, q), barred),
    }


def reshaped(table, rows, cols):
    """The table's top-left rows x cols block, with junk past its end."""
    return ValueTable(RationalMatrix.from_rows([
        [table.at(i, j) if i <= table.d and j <= table.d else F(7, 3) for j in range(cols)]
        for i in range(rows)
    ]))


# At d = 3: the right 4x4 block with a junk row and column, its 3x3 block,
# and the right block with a junk column.
SHAPES = {"(d+2)x(d+2)": (5, 5), "dxd": (3, 3), "(d+1)x(d+2)": (4, 5)}


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", table_checks())
def test_every_table_check_refuses_another_shape(name, shape):
    check, table = table_checks()[name]
    assert check(table) is True
    rows, cols = SHAPES[shape]
    with pytest.raises(ValueError, match=rf"expected 4x4 for d=3, got {rows}x{cols}\Z"):
        check(reshaped(table, rows, cols))


# -- the dual Hahn verdict -------------------------------------------------------


def _verdict_changes():
    """At d = 3: (array, table, the fields that must fail) for each change,
    one field failing alone where one change can do it."""
    p = build_params(3, F(2, 7), F(-1, 3))
    table = eval_table_hypergeometric(p)
    # b_0 doubled and c_1 halved scale rows 1..d of the recurrence table by
    # 1/2: every identity but the norms holds.
    rescaled = replace(p, b=replaced(p.b, 0, p.b[0]), c=replaced(p.c, 1, -p.c[1] / 2))
    return {
        "as built": (p, table, set()),
        "k* and nu doubled": (replace(p, k_star=tuple(2 * x for x in p.k_star), nu=2 * p.nu),
                              table, {"closed_forms_match"}),
        "nu doubled": (replace(p, nu=2 * p.nu), table, {"closed_forms_match", "orthogonality"}),
        "row 1 negated": (p, with_row(table, 1, [-u for u in table.values.row(1)]),
                          {"routes_agree"}),
        "a_d moved": (replace(p, a=replaced(p.a, 3, F(1))), table, {"top_row"}),
        "a*_d moved": (replace(p, a_star=replaced(p.a_star, 3, F(1))), table,
                       {"difference_equation"}),
        "b_0 doubled, c_1 halved": (rescaled, eval_table_recurrence(rescaled), {"orthogonality"}),
    }


VERDICT_CHANGES = _verdict_changes()


@pytest.mark.parametrize("change", VERDICT_CHANGES)
def test_each_dual_hahn_field_is_decided_by_its_own_check(change):
    p, table, failing = VERDICT_CHANGES[change]
    verdict = decide_dual_hahn(p, table)
    assert (verdict.d, verdict.r, verdict.s) == (p.d, p.r, p.s)
    assert {f.name for f in fields(verdict)[3:] if not getattr(verdict, f.name)} == failing
    assert verdict.ok is (not failing)


def test_verify_dual_hahn_builds_one_array_and_each_table_once(monkeypatch):
    calls = Counter()

    def counted(function):
        def call(*args):
            calls[function.__name__] += 1
            return function(*args)
        return call

    for name in ("build_params", "eval_table_hypergeometric", "eval_table_recurrence"):
        monkeypatch.setattr(representations, name, counted(getattr(representations, name)))
    verdict = verify_dual_hahn(5, F(2, 7), F(-2, 7))
    assert verdict.ok and isinstance(verdict, DualHahnVerdict)
    assert calls == {"build_params": 1, "eval_table_hypergeometric": 1,
                     "eval_table_recurrence": 1}
    assert verify_dual_hahn(5, "2/7", "-2/7") == verdict


def seven_checks(p, table):
    """The seven separate checks of the dual Hahn claim, as each caller ran
    them before the verdict, on a copy of the table that keeps no cached
    form or verdict: closed forms, routes agree, degree, orthogonality,
    difference equation, top row and basis consistency."""
    table = ValueTable(table.values)
    return (
        check_closed_forms(p),
        table.values == eval_table_recurrence(p).values,
        check_degree_invariant(p, table),
        check_orthogonality(p, table),
        check_difference_eq(p, table),
        check_top_row(p, table),
        check_basis_consistency(p),
    )


@lru_cache(maxsize=None)
def built_case(d, r, s):
    p = build_params(d, r, s)
    return p, eval_table_hypergeometric(p)


ARRAY_FIELDS = ("r", "s", "theta", "theta_star", "b", "c", "a", "k", "nu",
                "b_star", "c_star", "a_star", "k_star")
DELTAS = (F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-1, 3), F(3, 4))


def drawn_verdict_case(rng):
    """(change, array, table) at d <= 9, s = -r or off it: as built, one
    array entry moved with the 3F2 table or the moved array's own
    recurrence table, or one table entry moved, one row doubled or one row
    negated.  A moved array keeps the verdict's premises: theta and theta*
    simple, b_i != 0 for i < d."""
    d = rng.randint(0, 9)
    r = rng.choice(GRID_RS)
    s = -r if r < 1 and rng.random() < 0.5 else rng.choice([x for x in GRID_RS if x != -r])
    p, table = built_case(d, r, s)
    kind, i, delta = rng.random(), rng.randint(0, d), rng.choice(DELTAS)
    if kind < 0.3:
        return "as built", p, table
    if kind < 0.75:
        field = rng.choice(ARRAY_FIELDS)
        value = getattr(p, field)
        value = replaced(value, i, delta) if isinstance(value, tuple) else value + delta
        q = replace(p, **{field: value})
        if len(set(q.theta)) <= d or len(set(q.theta_star)) <= d or not all(q.b[:d]):
            return drawn_verdict_case(rng)
        return field, q, eval_table_recurrence(q) if rng.random() < 0.5 else table
    change = rng.choice(("entry moved", "row doubled", "row negated"))
    if change == "entry moved":
        h = rng.randint(0, d)
        return change, p, with_entry(table, i, h, table.at(i, h) + delta)
    factor = 2 if change == "row doubled" else -1
    return change, p, with_row(table, i, [factor * u for u in table.values.row(i)])


def test_the_dual_hahn_verdict_decides_as_its_seven_checks():
    """On drawn arrays and tables, each field is its own check and `ok` is
    the conjunction of all seven: the degree and the basis consistency are
    implied (the proof is in the `verify_dual_hahn` docstring)."""
    rng = random.Random(2508)
    counts = Counter()
    for _ in range(2400):
        change, p, table = drawn_verdict_case(rng)
        verdict = outcome(decide_dual_hahn, p, table)
        checks = outcome(seven_checks, p, table)
        if not isinstance(verdict, DualHahnVerdict):
            # Both raise the same error: a zero k_i, or a vanishing factor
            # of a closed form at a moved r.
            assert checks[:1] == verdict[:1], (change, verdict, checks)
            counts["raised"] += 1
            continue
        assert len(checks) == 7, (change, checks)
        decided = (verdict.closed_forms_match, verdict.routes_agree, verdict.orthogonality,
                   verdict.difference_equation, verdict.top_row)
        assert decided == tuple(checks[n] for n in (0, 1, 3, 4, 5)), change
        assert verdict.ok is all(checks), change
        counts[verdict.ok] += 1
    assert counts[True] + counts[False] >= 2000 and counts[True] >= 500, counts
