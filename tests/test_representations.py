import json
from fractions import Fraction as F
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from leonard_lab.cli import main
from leonard_lab.hyper import hypergeom_terminating
from leonard_lab.matrices import RationalMatrix, poly_from_roots, tridiagonal_charpoly
from leonard_lab.params import build_params
from leonard_lab.racah import build_racah_params
from leonard_lab.representations import (
    ValueTable,
    check_basis_consistency,
    check_degree_invariant,
    check_difference_eq,
    check_orthogonality,
    check_top_row,
    eval_table_hypergeometric,
    eval_table_recurrence,
    matrix_L_u_basis,
    matrix_L_ustar_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
    value_row_degree,
)

GRID_RS = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]


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

dual_rationals = st.fractions(min_value=-1, max_value=3, max_denominator=60).filter(
    lambda x: x > -1
)
racah_r = st.fractions(min_value=-1, max_value=1, max_denominator=60).filter(
    lambda x: -1 < x < 1 and x != 0
)


def parameter_arrays(d_max):
    """Dual Hahn arrays at drawn (d, r, s) and barred arrays at drawn (d, r)."""
    return st.one_of(
        st.builds(build_params, st.integers(0, d_max), dual_rationals, dual_rationals),
        st.builds(build_racah_params, st.integers(0, d_max), racah_r),
    )


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
    delta = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=20))
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
        st.lists(st.fractions(-9, 9, max_denominator=12), min_size=n, max_size=n,
                 unique=True)
    )
    # Values of a drawn polynomial of degree < n, so every degree occurs.
    coeffs = data.draw(st.lists(st.fractions(-4, 4, max_denominator=12), max_size=n))
    values = [sum((c * x**e for e, c in enumerate(coeffs)), F(0)) for x in nodes]
    assert value_row_degree(nodes, values) == degree_oracle(nodes, values)


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
    for i in range(p.d + 1):
        row = table.values.row(i)
        assert value_row_degree(p.theta, row) == degree_oracle(p.theta, row) == i


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


two_digit = st.fractions(min_value=-1, max_value=3, max_denominator=99).filter(
    lambda x: x > -1
)
nonzero = st.fractions(min_value=-3, max_value=3, max_denominator=20).filter(bool)


def kernel_cases(test):
    """Dual Hahn arrays at d <= 16, with s = -r or with free (r, s) up to
    two-digit denominators; d = 0, 1 and 2, where the boundary zeros b_d and
    c_0 sit next to every entry, are always run.  `at` picks the perturbed
    entry modulo d + 1."""
    d = st.integers(0, 16)
    arrays = st.one_of(
        st.builds(lambda d, r: build_params(d, r, -r), d, two_digit.filter(lambda x: x < 1)),
        st.builds(build_params, d, two_digit, two_digit),
    )
    for d, r, s in [(0, F(3, 7), F(-3, 7)), (1, F(-5, 11), F(5, 11)), (2, F(13, 17), F(2, 3))]:
        test = example(p=build_params(d, r, s), at=(d, 0), delta=F(1, 2))(test)
    at = st.tuples(st.integers(0, 16), st.integers(0, 16))
    return settings(deadline=None, max_examples=40)(given(p=arrays, at=at, delta=nonzero)(test))


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
        for d in (0, 1, 2):
            test = example(p=build_params(d, F(3, 7), F(-5, 11)), at=(d, 0), delta=F(1, 2))(test)
            test = example(p=build_racah_params(d, F(-5, 11)), at=(d, 0), delta=F(1, 2))(test)
        at = st.tuples(st.integers(0, 16), st.integers(0, 16))
        return settings(deadline=None, max_examples=max_examples)(
            given(p=parameter_arrays(d_max), at=at, delta=nonzero)(test)
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
