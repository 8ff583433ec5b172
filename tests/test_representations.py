import json
from fractions import Fraction as F
from itertools import product

from leonard_lab.cli import main
from leonard_lab.matrices import RationalMatrix
from leonard_lab.params import build_params
from leonard_lab.representations import (
    check_basis_consistency,
    check_degree_invariant,
    check_difference_eq,
    check_orthogonality,
    check_top_row,
    divided_differences,
    eval_table_hypergeometric,
    eval_table_recurrence,
    matrix_L_u_basis,
    matrix_L_ustar_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
    value_row_degree,
)

GRID_RS = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]


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
    from leonard_lab.leonard import is_irreducible_tridiagonal

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
