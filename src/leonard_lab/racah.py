"""Barred (Racah) parameter arrays and the identities tying them back to the
dual Hahn data at s = -r.

Everything here lives in the regime r in (-1, 1) \\ {0}, s = -r, which is
exactly where the squared-shift construction produces a second Leonard pair,
(L, (L* + (r-d)/2)^2).  Its barred array is a `ParameterArray` built from its
own closed forms, written as integer pairs over the denominator of r, and
completed and validated by `params.parameter_array`, like the dual Hahn one.
It is a re-indexing of the unbarred data, with bar_b* and bar_c* the
sigma-consecutive entries of the dual Hahn shifted square and values from a
terminating 4F3; `verify_racah` decides each barred identity once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

from .hyper import (
    _over_common_denominator,
    exact_rational,
    format_rational,
    hypergeom_table,
    hypergeom_terminating,
)
from .leonard import _sigma, canonical_shift, lstar_shift_square
from .matrices import RationalMatrix
from .params import ParameterArray, ParameterDomainError, build_params, parameter_array
from .representations import (
    ValueTable,
    _recurrence_holds,
    _require_table_shape,
    check_orthogonality,
    eval_table_hypergeometric,
    matrix_Lstar_ustar_basis,
)


def build_racah_params(d: int, r: Fraction | int | str) -> ParameterArray:
    """Build and validate the barred array from (d, r); s = -r is hard-coded.

    Requires r != 0 and -1 < r < 1, else ParameterDomainError (TypeError for
    a float r); the domain holds no integer, see `eval_table_4F3`.
    """
    if not isinstance(d, int) or d < 0:
        raise ParameterDomainError(f"d must be a natural number, got {d!r}")
    r = exact_rational("r", r)
    if r == 0 or not (-1 < r < 1):
        raise ParameterDomainError(
            f"r must lie in (-1, 1) and be nonzero, got {format_rational(r)}"
        )

    # Over r = R/D every entry is one integer pair (numerator, positive
    # denominator), as `parameter_array` reads them.
    R, D = r.as_integer_ratio()
    theta = [((d - 2 * i) * (d - 2 * i + 1), 1) for i in range(d + 1)]
    # theta*_i = (i + (r-d)/2)^2 = ((2i-d) D + R)^2 / (2D)^2
    theta_star = [(((2 * i - d) * D + R) ** 2, 4 * D * D) for i in range(d + 1)]
    b = [((d - i) * ((d - i) * D - R), D) for i in range(d)] + [(0, 1)]
    c = [(0, 1)] + [(i * (i * D + R), D) for i in range(1, d + 1)]

    def over(num, x):
        # num / (2 D^2 (x-1)(x+1)) for even x: (x-1)(x+1) = x^2 - 1 is
        # negative only at x = 0, where it is -1; the sign goes on num.
        return (num, 2 * D * D * (x * x - 1)) if x else (-num, 2 * D * D)

    b_star = [
        over((d - i) * (2 * (d - i) + 1) * ((d - 2 * i - 1) * D - R) * ((d - 2 * i) * D - R),
             2 * d - 4 * i)
        for i in range(d)
    ] + [(0, 1)]
    c_star = [(0, 1)] + [
        over(i * (2 * i - 1) * ((d - 2 * i + 1) * D + R) * ((d - 2 * i + 2) * D + R),
             2 * d - 4 * i + 2)
        for i in range(1, d + 1)
    ]
    return parameter_array(d, r, -r, theta, theta_star, b, c, b_star, c_star)


def varphi(q: ParameterArray, i: int) -> Fraction:
    """bar_varphi_i = i (i-d-1) (d-2i-r+1) (d-2i-r+2), for i = 1..d."""
    d, r = q.d, q.r
    if not 1 <= i <= d:
        raise IndexError(f"varphi index must be 1..{d}, got {i}")
    return Fraction(i) * (i - d - 1) * (d - 2 * i - r + 1) * (d - 2 * i - r + 2)


def index_map(d: int) -> tuple[int, ...]:
    """sigma with bar_theta[i] = theta[sigma(i)]: evens up, then odds down,
    the first candidate ordering of `leonard`."""
    return _sigma(d)


def _require_shared(p: ParameterArray, q: ParameterArray) -> None:
    if p.d != q.d or p.r != q.r or p.s != q.s:
        raise ValueError(
            "parameter mismatch: expected shared (d, r) with s = -r, got "
            f"dual (d={p.d}, r={format_rational(p.r)}, s={format_rational(p.s)}) "
            f"vs barred (d={q.d}, r={format_rational(q.r)})"
        )


def check_index_mapping(p: ParameterArray, q: ParameterArray) -> bool:
    """bar_theta is theta re-indexed by sigma, and bar_theta*_i equals
    (theta*_i + (r-d)/2)^2."""
    _require_shared(p, q)
    sigma = index_map(q.d)
    if any(q.theta[i] != p.theta[sigma[i]] for i in range(q.d + 1)):
        return False
    half_shift = canonical_shift(q)
    return all(
        q.theta_star[i] == (p.theta_star[i] + half_shift) ** 2
        for i in range(q.d + 1)
    )


def check_unbarred_identities(p: ParameterArray, q: ParameterArray) -> bool:
    """bar_b = b, bar_c = c, bar_a = a, bar_k = k, bar_nu = nu, entrywise."""
    _require_shared(p, q)
    return q.b == p.b and q.c == p.c and q.a == p.a and q.k == p.k and q.nu == p.nu


def check_starred_products(p: ParameterArray, q: ParameterArray) -> bool:
    """The starred facts no other field decides: bar_k* is k* re-indexed by
    sigma, and at d > 0 the one nonzero middle factor of the shifted square,
    2 lambda + a*_{d-1} + a*_d at lambda = (r-d)/2, is (d+1) r/2.  bar_b* and
    bar_c* are the square's sigma-consecutive entries, products of b*, c*
    and that factor; `check_barred_matrices` decides them."""
    _require_shared(p, q)
    d, sigma = q.d, index_map(q.d)
    if d and 2 * canonical_shift(q) + p.a_star[d - 1] + p.a_star[d] != Fraction(d + 1) * q.r / 2:
        return False
    return all(q.k_star[i] == p.k_star[sigma[i]] for i in range(d + 1))


def check_varphi(q: ParameterArray) -> bool:
    """bar_varphi_i against its defining quotient, computed directly from
    bar_b and differences of bar_theta*:

        bar_varphi_i == bar_b_{i-1} P_i / (P_{i-1} D),

    with bar_theta* = T / D over one denominator and P_i the integer product
    of T_i - T_l over l < i.  The quotient is compared cross-multiplied."""
    nodes, den = _over_common_denominator(q.theta_star)
    products = [math.prod(x - y for y in nodes[:i]) for i, x in enumerate(nodes)]
    for i in range(1, q.d + 1):
        phi, phi_den = varphi(q, i).as_integer_ratio()
        b, b_den = q.b[i - 1].as_integer_ratio()
        if phi * b_den * products[i - 1] * den != b * phi_den * products[i]:
            return False
    return True


def eval_table_4F3(q: ParameterArray) -> ValueTable:
    """u_i(bar_theta_j) as the terminating 4F3 at unit argument, with
    numerator parameters -i, i - d + r, -j, j - d - 1/2 and denominator
    parameters -d, (r - d)/2, (r - d + 1)/2.

    One `hypergeom_table` call evaluates the whole table: the row pair
    (-i, i - d + r), the column pair (-j, j - d - 1/2) and the denominators
    each give their term factors once, and an entry multiplies a row factor
    by a column factor per term.  Truncating every entry at d terms changes
    nothing, because row i terminates at term i <= d.  No denominator factor
    vanishes: term h < d divides by -d + h, zero only at h = d, and by
    (r - d)/2 + h and (r - d + 1)/2 + h, zero only at an integer r, which
    `build_racah_params` excludes (r in (-1, 1) \\ {0}).  Were one to
    vanish, `hypergeom_table` would raise `SeriesDivisionError`."""
    d, r = q.d, q.r
    rows = [(-i, i - d + r) for i in range(d + 1)]
    columns = [(-j, Fraction(2 * (j - d) - 1, 2)) for j in range(d + 1)]
    dens = (-d, (r - d) / 2, (r - d + 1) / 2)
    table = hypergeom_table(rows, columns, dens, terms=d)
    return ValueTable(RationalMatrix._exact(d + 1, d + 1, tuple([x for row in table for x in row])))


def check_table_matches_permuted_dual(
    p: ParameterArray, q: ParameterArray, table: ValueTable
) -> bool:
    """The 4F3 table equals the sigma-permuted 3F2 table of the dual Hahn
    array, column j against column sigma(j): u_i(bar_theta_j) ==
    u_i(theta_sigma(j)), by two independent hypergeometric routes."""
    _require_shared(p, q)
    _require_table_shape(q, table)
    dual = eval_table_hypergeometric(p).values
    return all(table.values.column(j) == dual.column(k) for j, k in enumerate(index_map(q.d)))


def check_racah_orthogonality(q: ParameterArray, table: ValueTable) -> bool:
    """Barred orthogonality sum_h u_i u_j bar_k*_h == delta_ij bar_nu/bar_k_i;
    other `verify_racah` fields tie its weights and values to the dual Hahn ones.

    It is `check_orthogonality(q, table)`, which refuses a table of another
    shape and sums only row 0 of the Gram matrix under three premises.  On an
    array of `build_racah_params` two hold by construction: bar_b_i =
    (d - i)(d - i - r) != 0 for i < d, since |r| < 1 (and `parameter_array`
    refuses a zero interior bar_b), and bar_k is the running product of
    bar_b_i / bar_c_{i+1}, so bar_k_i bar_b_i == bar_k_{i+1} bar_c_{i+1}.
    The third is the recurrence that `check_barred_recurrence` decides, with
    the same helper.  So wherever the `barred_recurrence` field holds, row 0
    decides this field in O(d^2); where it fails, the full Gram loop decides,
    so this field never leans on that one."""
    return check_orthogonality(q, table)


def check_barred_recurrence(q: ParameterArray, table: ValueTable) -> bool:
    """x u_i(x) = bar_b_i u_{i+1}(x) + bar_a_i u_i(x) + bar_c_i u_{i-1}(x) at
    the barred nodes, boundary terms dropped through zero coefficients."""
    _require_table_shape(q, table)
    return _recurrence_holds(q, table)


def check_barred_matrices(p: ParameterArray, q: ParameterArray) -> bool:
    """The dual Hahn shifted square (L* + (r-d)/2)^2, reordered by sigma
    (`index_map`), equals the barred u*-basis matrix tridiag(bar_a*, bar_b*,
    bar_c*); of the `verify_racah` fields, only this one decides bar_b*, bar_c*."""
    _require_shared(p, q)
    square = lstar_shift_square(p, canonical_shift(q)).permuted(index_map(q.d))
    return square == matrix_Lstar_ustar_basis(q)


# -- the barred suite ---------------------------------------------------------


@dataclass(frozen=True)
class RacahVerdict:
    """The eight barred identities at (d, r, s = -r), each in one field only;
    bar_b* and bar_c* are in `barred_matrices`."""

    d: int
    r: Fraction
    index_mapping: bool
    unbarred_identities: bool
    starred_products: bool
    varphi: bool
    table4F3_matches_permuted_dual_hahn: bool
    orthogonality: bool
    barred_recurrence: bool
    barred_matrices: bool

    @property
    def ok(self) -> bool:
        """Whether all eight identities hold."""
        return all(getattr(self, f.name) for f in fields(self)[2:])


def verify_racah(d: int, r: Fraction | int | str) -> RacahVerdict:
    """Every barred identity, each checked in one field only, on one barred
    array, one dual Hahn array p and one 4F3 table.  "The same inner
    product" is `starred_products` (bar_k* = k* o sigma),
    `table4F3_matches_permuted_dual_hahn` (the values) and `orthogonality`.
    For any barred array and table, the fields imply that L in the u-basis
    and both diagonals equal those rebuilt from p (`unbarred_identities`,
    `index_mapping`), and that table == U o sigma, U the dual Hahn
    recurrence table: each column obeys U's recurrence (those two and
    `barred_recurrence`), starts at u_0 = 1 (matched with the 3F2 row 0),
    and b_i != 0 fixes row i + 1.

    `barred_matrices` makes each bar_b*_i, bar_c*_i a sigma-consecutive entry
    of the shifted square: b* b*, c* c*, or b*_{d-1} m, c*_d m where sigma
    turns, m the middle factor, which `starred_products` fixes at (d+1) r/2."""
    q = build_racah_params(d, r)
    p = build_params(q.d, q.r, q.s)
    table = eval_table_4F3(q)
    return RacahVerdict(
        d=q.d,
        r=q.r,
        index_mapping=check_index_mapping(p, q),
        unbarred_identities=check_unbarred_identities(p, q),
        starred_products=check_starred_products(p, q),
        varphi=check_varphi(q),
        table4F3_matches_permuted_dual_hahn=check_table_matches_permuted_dual(p, q, table),
        orthogonality=check_racah_orthogonality(q, table),
        barred_recurrence=check_barred_recurrence(q, table),
        barred_matrices=check_barred_matrices(p, q),
    )


# -- the textbook Racah route ------------------------------------------------


def standard_racah_eval(
    d: int, r: Fraction | int | str, i: int, x: Fraction | int
) -> Fraction:
    """Textbook Racah 4F3 with parameter set
    (N, alpha, beta, gamma, delta) = (d, -d-1, r, (r-d-1)/2, -(r+d)/2 - 1),
    evaluated at node index x."""
    r = exact_rational("r", r)
    x = exact_rational("x", x)
    alpha = Fraction(-d - 1)
    beta = r
    gamma = (r - d - 1) / 2
    delta = -(r + d) / 2 - 1
    return hypergeom_terminating(
        [Fraction(-i), i + alpha + beta + 1, -x, x + gamma + delta + 1],
        [alpha + 1, beta + delta + 1, gamma + 1],
        terms=i,
    )


def affine_maps(
    d: int, r: Fraction | int | str
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """(slope, intercept) pairs carrying the standard dual Hahn and Racah
    node variables onto theta and bar_theta: x -> x + d(d+r+s+1) with s = -r,
    and x -> 4x + d(d+1)."""
    r = exact_rational("r", r)
    s = -r
    aff1 = (Fraction(1), Fraction(d) * (d + r + s + 1))
    aff2 = (Fraction(4), Fraction(d) * (d + 1))
    return aff1, aff2
