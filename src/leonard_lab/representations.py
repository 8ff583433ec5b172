"""Value tables u_i(theta_j) by two independent routes, the four matrix
representations, and the exact orthogonality / difference-equation checks.

Polynomials are represented only by their value tables at the d+1 nodes:
values at distinct nodes determine a polynomial of degree <= d uniquely, so
every table check refuses a table that is not (d+1)x(d+1) with a ValueError.
A table that obeys its array's recurrence has its orthogonality read from
row 0 of its Gram matrix and its exact degrees from its own row 0; any other
table goes through all the Gram sums and the Newton divided differences.
No coefficient lists, no floating point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .hyper import format_rational, hypergeom_terminating
from .matrices import RationalMatrix, poly_from_roots, tridiagonal_charpoly
from .params import ParameterArray


@dataclass(frozen=True)
class ValueTable:
    """values.at(i, j) = u_i(theta_j) for 0 <= i, j <= d, d the d of the
    array it is checked against; every table check refuses another shape
    with a ValueError (`_require_table_shape`)."""

    values: RationalMatrix

    @property
    def d(self) -> int:
        return self.values.rows - 1

    def at(self, i: int, j: int) -> Fraction:
        return self.values.at(i, j)

    @cached_property
    def int_rows(self) -> tuple[tuple[list[int], int], ...]:
        """Each row as (integers, den) over its own common denominator,
        formed on first use and then kept for every check of this table."""
        return tuple(
            _over_common_denominator(self.values.row(i)) for i in range(self.values.rows)
        )

    @cached_property
    def int_columns(self) -> tuple[list[int], ...]:
        """Each column's integers over its own common denominator; only
        identities linear in a column read them, so the denominator is
        dropped."""
        return tuple(
            _over_common_denominator(self.values.column(j))[0]
            for j in range(self.values.cols)
        )


def eval_table_hypergeometric(p: ParameterArray) -> ValueTable:
    """u_i(theta_j) as the terminating 3F2 at unit argument, truncated at i.

    The one non-integer numerator parameter, j - r - s - 2d - 1, is built
    once per column and the denominator parameters once per table."""
    d = p.d
    base = -p.r - p.s - (2 * d + 1)
    columns = [base + j for j in range(d + 1)]
    dens = (-p.s - d, -d)
    entries = [
        hypergeom_terminating((-i, -j, columns[j]), dens, terms=i)
        for i in range(d + 1)
        for j in range(d + 1)
    ]
    return ValueTable(RationalMatrix(d + 1, d + 1, tuple(entries)))


def eval_table_recurrence(p: ParameterArray) -> ValueTable:
    """u_i(theta_j) via the three-term recurrence; shares no code with the
    hypergeometric route.

    b_i u_{i+1} = (theta - a_i) u_i - c_i u_{i-1} runs row by row on
    integers: a row is a list of numerators over one denominator, the two
    terms of a step go over the lcm of their denominators, and one gcd pass
    per row reduces the new row."""
    d = p.d
    nodes, nodes_den = _over_common_denominator(p.theta)
    prev, prev_den = [0] * (d + 1), 1  # u_{-1}, only ever scaled by c_0 = 0
    row, row_den = [1] * (d + 1), 1
    entries = [Fraction(1)] * (d + 1)
    for i in range(d):
        a, a_den = p.a[i].as_integer_ratio()
        b, b_den = p.b[i].as_integer_ratio()
        c, c_den = p.c[i].as_integer_ratio()
        # (theta_j - a_i) u_i(theta_j) == shift_j row_j / left_den
        shift = [x * a_den - a * nodes_den for x in nodes]
        left_den = nodes_den * a_den * row_den
        right_den = c_den * prev_den
        den = math.lcm(left_den, right_den)
        left = den // left_den * b_den
        right = den // right_den * b_den * c
        new = [t * u * left - v * right for t, u, v in zip(shift, row, prev)]
        new_den = den * b
        g = math.gcd(new_den, *new)
        if new_den < 0:
            g = -g
        prev, prev_den = row, row_den
        row, row_den = [v // g for v in new], new_den // g
        entries.extend(Fraction(v, row_den) for v in row)
    return ValueTable(RationalMatrix(d + 1, d + 1, tuple(entries)))


def _over_common_denominator(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(integers, den) with values[h] == integers[h] / den."""
    den = 1
    for v in values:  # not math.lcm(*...), which builds an argument tuple per call
        den = math.lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in values], den


def _three_term_holds(
    lines: Sequence[Sequence[int]],
    eigenvalues: Sequence[Fraction],
    a: Sequence[Fraction],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
    at: Iterable[int],
) -> bool:
    """Whether lam v[n] == b[n] v[n+1] + a[n] v[n] + c[n] v[n-1] for every
    line v of `lines` with its eigenvalue lam (in zip order) and every index
    n of `at`; the terms beyond either end of a line drop.

    The identity is linear in v, so each line comes as integers over a
    denominator that cancels (a `ValueTable` view), and each index's triple
    (a[n], b[n], c[n]) goes over one lcm L: the test is
    lam_num L v[n] == lam_den (B v[n+1] + A v[n] + C v[n-1]) on integers."""
    lams = [lam.as_integer_ratio() for lam in eigenvalues]
    last = len(lines[0]) - 1
    for n in at:
        (A, B, C), L = _over_common_denominator((a[n], b[n], c[n]))
        for v, (lam_num, lam_den) in zip(lines, lams):
            rhs = A * v[n]
            if n < last:
                rhs += B * v[n + 1]
            if n > 0:
                rhs += C * v[n - 1]
            if lam_num * L * v[n] != lam_den * rhs:
                return False
    return True


def _require_table_shape(p: ParameterArray, table: ValueTable) -> None:
    if not table.values.rows == table.values.cols == p.d + 1:
        raise ValueError(
            f"table shape mismatch: expected {p.d + 1}x{p.d + 1} for d={p.d}, "
            f"got {table.values.rows}x{table.values.cols}"
        )


def _recurrence_holds(p: ParameterArray, table: ValueTable) -> bool:
    """A U == U Theta for the table U and A = tridiag(c, a, b),
    A[i][i+1] = b_i: every column obeys theta_j u_i(theta_j) ==
    b_i u_{i+1}(theta_j) + a_i u_i(theta_j) + c_i u_{i-1}(theta_j) at every
    row i = 0..d, the terms past either end dropped."""
    return _three_term_holds(table.int_columns, p.theta, p.a, p.b, p.c, range(p.d + 1))


def check_top_row(p: ParameterArray, table: ValueTable) -> bool:
    """Recurrence at i = d, where b_d = 0 closes the system:
    theta_j u_d(theta_j) = a_d u_d(theta_j) + c_d u_{d-1}(theta_j)."""
    _require_table_shape(p, table)
    return _three_term_holds(table.int_columns, p.theta, p.a, p.b, p.c, (p.d,))


def check_orthogonality(p: ParameterArray, table: ValueTable) -> bool:
    """sum_h u_i(theta_h) u_j(theta_h) k*_h == delta_ij nu / k_i, exactly:
    the Gram matrix G = U M U^T, with M = diag(k*), equals nu K^-1, with
    K = diag(k).

    If b_i != 0 for i < d, k_i b_i == k_{i+1} c_{i+1} for i < d and the
    table obeys p's full recurrence, row 0 of G decides, in d + 1 integer
    dot products; otherwise every row does (`_gram_orthogonality`).  The
    proof is Favard's theorem in matrix form (Chihara, An Introduction to
    Orthogonal Polynomials, 1978, ch. I), each premise where it is used:

    - the recurrence A U == U Theta (`_recurrence_holds`) gives
      A G = U Theta M U^T = U M Theta U^T = G A^T;
    - the symmetrizer k_i b_i == k_{i+1} c_{i+1} gives A^T = K A K^-1 once
      K is invertible, so X = G K commutes with A.  k_0 != 0 needs no test:
      both paths form nu / k_0 first and raise the same ZeroDivisionError
      when it is zero; from k_0 != 0, k_{i+1} c_{i+1} = k_i b_i != 0 gives
      every k_i != 0;
    - b_i != 0 makes the rows e_0^T A^n, n = 0..d, a basis: row n is zero
      past entry n and b_0 b_1 ... b_{n-1} there.

    If row 0 of G is (nu / k_0, 0, ..., 0), then e_0^T X = nu e_0^T, so
    e_0^T A^n X = e_0^T X A^n = nu e_0^T A^n for every n: X = nu I on a
    basis, which is G = nu K^-1.  The converse is row 0 of that identity.
    A table that is orthogonal but breaks the recurrence, such as one with
    a row's signs flipped, goes to the full loop and passes."""
    _require_table_shape(p, table)
    d = p.d
    favard = (
        all(p.b[:d])
        and all(k * b == k1 * c for k, b, k1, c in zip(p.k, p.b, p.k[1:], p.c[1:]))
        and _recurrence_holds(p, table)
    )
    return _gram_orthogonality(p, table, rows=1 if favard else None)


def _gram_orthogonality(p: ParameterArray, table: ValueTable, rows: int | None = None) -> bool:
    """The first `rows` rows (all by default) of G = U diag(k*) U^T against
    those of nu K^-1: the full orthogonality when every row is summed.

    Each row of the table (its `int_rows` view) and k* are over one common
    denominator, so every sum is an integer dot product; only the diagonal
    sums are turned back into a Fraction."""
    weights, weights_den = _over_common_denominator(p.k_star)
    table_rows = table.int_rows
    for i, (row_i, den_i) in enumerate(table_rows[:rows]):
        weighted = [u * w for u, w in zip(row_i, weights)]
        norm = sum(map(operator.mul, weighted, row_i))
        if Fraction(norm, den_i * den_i * weights_den) != p.nu / p.k[i]:
            return False
        for row_j, _ in table_rows[i + 1 :]:
            if sum(map(operator.mul, weighted, row_j)) != 0:
                return False
    return True


def check_difference_eq(p: ParameterArray, table: ValueTable) -> bool:
    """theta*_i u_i(theta_j) == b*_j u_i(theta_{j+1}) + a*_j u_i(theta_j)
    + c*_j u_i(theta_{j-1}); boundary terms drop via b*_d = c*_0 = 0."""
    _require_table_shape(p, table)
    rows = [row for row, _ in table.int_rows]
    return _three_term_holds(rows, p.theta_star, p.a_star, p.b_star, p.c_star, range(p.d + 1))


# -- degrees via divided differences --------------------------------------


def value_row_degree(nodes: Sequence[Fraction], values: Sequence[Fraction]) -> int:
    """Exact degree of the interpolating polynomial (-1 for identically zero):
    the highest order m with a nonzero order-m divided difference.

    Only which differences vanish matters, so the triangle runs on integers.
    Nodes and values are scaled to integers by common denominators, which
    carries a polynomial of degree m to one of degree m.  Each order is then
    multiplied by the lcm of its node gaps instead of divided by each gap, so
    row m holds the order-m divided differences times one positive factor.
    The nodes must be distinct.
    """
    if len(nodes) != len(values):
        raise ValueError("nodes and values must have equal length")
    scales = _node_scales(nodes)
    return _triangle_degree(_over_common_denominator(values)[0], scales)


def _node_scales(nodes: Sequence[Fraction]) -> list[list[int]]:
    """For each order m >= 1, the factors lcm(gaps) // gap over the order-m
    gaps x[t+m] - x[t] of the nodes scaled to integers x; they depend only on
    the nodes.  Raises ValueError naming a repeated node."""
    xs, _ = _over_common_denominator(nodes)
    if len(set(xs)) != len(xs):
        repeated = next(x for t, x in enumerate(nodes) if x in nodes[:t])
        raise ValueError(f"nodes must be distinct: {format_rational(repeated)} is repeated")
    scales = []
    for m in range(1, len(xs)):
        gaps = [xs[t + m] - xs[t] for t in range(len(xs) - m)]
        lcm = 1
        for gap in gaps:
            lcm = math.lcm(lcm, gap)
        scales.append([lcm // gap for gap in gaps])
    return scales


def _triangle_degree(row: list[int], scales: list[list[int]]) -> int:
    """Degree of the integer values `row` at the nodes of `scales`.  The
    triangle stops at the first order that is all zero: every higher order is
    a difference of it, so it is zero too."""
    if not any(row):
        return -1
    for m, factors in enumerate(scales, 1):
        row = [(v - u) * f for u, v, f in zip(row, row[1:], factors)]
        if not any(row):
            return m - 1
    return len(scales)


def check_degree_invariant(p: ParameterArray, table: ValueTable) -> bool:
    """Row i of the table must be the values of a polynomial of exact degree i.

    If the nodes theta are distinct and the table obeys p's full recurrence
    (`_recurrence_holds`), the verdict is whether row 0 is a nonzero
    constant; otherwise every row's divided-difference triangle decides
    (`_triangle_degree_invariant`), which also names a repeated node.

    Exact degrees make row 0 a nonzero constant.  Conversely, let row 0 be
    a constant P_0 != 0, and let i < d be the first index with b_i == 0, if
    there is one.  Below it, u_{i'+1} = ((theta - a_i') u_i' - c_i' u_{i'-1})
    / b_i' carries polynomials of exact degrees i' and i' - 1 to one of
    exact degree i' + 1 <= d, which is the row's interpolating polynomial,
    since d + 1 distinct nodes fix a polynomial of degree <= d.  So rows
    0..i are the values of P_0..P_i of exact degrees 0..i, and row i's
    recurrence says that (x - a_i) P_i - c_i P_{i-1}, of exact degree
    i + 1 <= d, vanishes at d + 1 distinct nodes, which it cannot.  Hence
    every b_i != 0 (i < d), needing no test of its own, and the same step
    runs up to row d."""
    _require_table_shape(p, table)
    d = p.d
    if len(set(p.theta)) == d + 1 and _recurrence_holds(p, table):
        first = table.values.row(0)
        return first[0] != 0 and first.count(first[0]) == d + 1
    return _triangle_degree_invariant(p, table)


def _triangle_degree_invariant(p: ParameterArray, table: ValueTable) -> bool:
    """The degree of every row by its integer divided-difference triangle;
    the node scales are computed once for all rows."""
    scales = _node_scales(p.theta)
    return all(
        _triangle_degree(row, scales) == i
        for i, (row, _) in enumerate(table.int_rows)
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
    """The two representations of each operator must be similar: the
    characteristic polynomials of the tridiagonal matrices of L in the u-basis
    and of L* in the u*-basis must have the eigenvalues theta and theta* as
    roots.  (The trace is the second coefficient, so it is compared too.)"""
    d = p.d
    return _charpoly_has_roots(p.a, p.b[:d], p.c[1:], p.theta) and _charpoly_has_roots(
        p.a_star, p.b_star[:d], p.c_star[1:], p.theta_star
    )


def _charpoly_has_roots(
    diag: Sequence[Fraction],
    sub: Sequence[Fraction],
    sup: Sequence[Fraction],
    roots: Sequence[Fraction],
) -> bool:
    """Whether tridiag(diag, sub, sup) has characteristic polynomial
    prod (x - root), compared on integers.

    With L the lcm of every denominator, L T is an integer matrix with
    eigenvalues L root, and coefficient m of both characteristic polynomials
    scales by L^m, so the integer polynomials agree iff the rational ones do."""
    n = len(diag)
    ints, _ = _over_common_denominator((*diag, *sub, *sup, *roots))
    diag, sub, sup, roots = (
        ints[:n], ints[n : 2 * n - 1], ints[2 * n - 1 : 3 * n - 2], ints[3 * n - 2 :]
    )
    return tridiagonal_charpoly(diag, sub, sup) == poly_from_roots(roots)
