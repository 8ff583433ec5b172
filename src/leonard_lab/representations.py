"""Value tables u_i(theta_j) by two independent routes, the four matrix
representations, and the exact orthogonality / difference-equation checks.

Polynomials are represented only by their value tables at the d+1 nodes:
values at distinct nodes determine a polynomial of degree <= d uniquely, and
the exact degree is recovered through Newton divided differences.  No
coefficient lists, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .hyper import hypergeom_terminating
from .matrices import RationalMatrix, poly_from_roots
from .params import ParameterArray


@dataclass(frozen=True)
class ValueTable:
    """values.at(i, j) = u_i(theta_j) for 0 <= i, j <= d."""

    values: RationalMatrix

    @property
    def d(self) -> int:
        return self.values.rows - 1

    def at(self, i: int, j: int) -> Fraction:
        return self.values.at(i, j)


def eval_table_hypergeometric(p: ParameterArray) -> ValueTable:
    """u_i(theta_j) as the terminating 3F2 at unit argument, truncated at i."""
    d, r, s = p.d, p.r, p.s
    rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            row.append(
                hypergeom_terminating(
                    [Fraction(-i), Fraction(-j), j - r - s - 2 * d - 1],
                    [-s - d, Fraction(-d)],
                    terms=i,
                )
            )
        rows.append(row)
    return ValueTable(RationalMatrix.from_rows(rows))


def eval_table_recurrence(p: ParameterArray) -> ValueTable:
    """u_i(theta_j) via the three-term recurrence; shares no code with the
    hypergeometric route."""
    d = p.d
    rows = [[Fraction(1)] * (d + 1)]
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


def check_top_row(p: ParameterArray, table: ValueTable) -> bool:
    """Recurrence at i = d, where b_d = 0 closes the system:
    theta_j u_d(theta_j) = a_d u_d(theta_j) + c_d u_{d-1}(theta_j)."""
    d = p.d
    for j in range(d + 1):
        rhs = p.a[d] * table.at(d, j)
        if d >= 1:
            rhs += p.c[d] * table.at(d - 1, j)
        if p.theta[j] * table.at(d, j) != rhs:
            return False
    return True


def check_orthogonality(p: ParameterArray, table: ValueTable) -> bool:
    """sum_h u_i(theta_h) u_j(theta_h) k*_h == delta_ij nu / k_i, exactly."""
    d = p.d
    for i in range(d + 1):
        for j in range(i, d + 1):
            total = Fraction(0)
            for h in range(d + 1):
                total += table.at(i, h) * table.at(j, h) * p.k_star[h]
            expected = p.nu / p.k[i] if i == j else Fraction(0)
            if total != expected:
                return False
    return True


def check_difference_eq(p: ParameterArray, table: ValueTable) -> bool:
    """theta*_i u_i(theta_j) == b*_j u_i(theta_{j+1}) + a*_j u_i(theta_j)
    + c*_j u_i(theta_{j-1}); boundary terms drop via b*_d = c*_0 = 0."""
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


# -- degrees via divided differences --------------------------------------


def divided_differences(
    nodes: Sequence[Fraction], values: Sequence[Fraction]
) -> list[list[Fraction]]:
    """Full triangle: row m holds all order-m divided differences."""
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


def value_row_degree(nodes: Sequence[Fraction], values: Sequence[Fraction]) -> int:
    """Exact degree of the interpolating polynomial (-1 for identically zero)."""
    degree = -1
    for m, row in enumerate(divided_differences(nodes, values)):
        if any(v != 0 for v in row):
            degree = m
    return degree


def check_degree_invariant(p: ParameterArray, table: ValueTable) -> bool:
    """Row i of the table must be the values of a polynomial of exact degree i."""
    return all(
        value_row_degree(p.theta, table.values.row(i)) == i for i in range(p.d + 1)
    )


# -- matrix representations ------------------------------------------------


def matrix_L_u_basis(p: ParameterArray) -> RationalMatrix:
    """Matrix of L in the u-basis: tridiagonal with diagonal a, subdiagonal b,
    superdiagonal c."""
    d = p.d
    return RationalMatrix.tridiagonal(
        diag=p.a, sub=p.b[:d], sup=p.c[1 : d + 1]
    )


def matrix_Lstar_u_basis(p: ParameterArray) -> RationalMatrix:
    """Matrix of L* in the u-basis: diag(theta*_0, ..., theta*_d)."""
    return RationalMatrix.diagonal(p.theta_star)


def matrix_L_ustar_basis(p: ParameterArray) -> RationalMatrix:
    """Matrix of L in the u*-basis: diag(theta_0, ..., theta_d)."""
    return RationalMatrix.diagonal(p.theta)


def matrix_Lstar_ustar_basis(p: ParameterArray) -> RationalMatrix:
    """Matrix of L* in the u*-basis: tridiagonal with diagonal a*,
    subdiagonal b*, superdiagonal c*."""
    d = p.d
    return RationalMatrix.tridiagonal(
        diag=p.a_star, sub=p.b_star[:d], sup=p.c_star[1 : d + 1]
    )


def check_basis_consistency(p: ParameterArray) -> bool:
    """The two representations of each operator must be similar: compare trace
    and characteristic polynomial against the eigenvalue data."""
    L_u = matrix_L_u_basis(p)
    if L_u.trace() != sum(p.theta, Fraction(0)):
        return False
    if L_u.charpoly() != poly_from_roots(p.theta):
        return False
    Lstar_ustar = matrix_Lstar_ustar_basis(p)
    if Lstar_ustar.trace() != sum(p.theta_star, Fraction(0)):
        return False
    if Lstar_ustar.charpoly() != poly_from_roots(p.theta_star):
        return False
    return True
