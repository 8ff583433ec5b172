"""Barred (Racah) parameter arrays and the identities tying them back to the
dual Hahn data at s = -r.

Everything here lives in the regime r in (-1, 1) \\ {0}, s = -r, which is
exactly where the squared-shift construction produces a second Leonard pair.
The barred arrays are built from their own closed forms; the index-mapping,
product, and orthogonality checks then confirm they are re-indexings and
pairwise products of the unbarred data, with the evaluation route furnished
by a terminating 4F3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hyper import format_rational, hypergeom_terminating
from .leonard import candidate_orderings, lstar_shift_square
from .matrices import RationalMatrix
from .params import (
    DualHahnParams,
    ParameterDomainError,
    _cumulative_quotients,
    _diagonal_from,
    build_params,
)
from .representations import (
    ValueTable,
    eval_table_hypergeometric,
    matrix_L_u_basis,
)


@dataclass(frozen=True)
class RacahParams:
    d: int
    r: Fraction
    bar_theta: tuple[Fraction, ...]
    bar_theta_star: tuple[Fraction, ...]
    bar_b: tuple[Fraction, ...]
    bar_c: tuple[Fraction, ...]
    bar_a: tuple[Fraction, ...]
    bar_k: tuple[Fraction, ...]
    bar_nu: Fraction
    bar_b_star: tuple[Fraction, ...]
    bar_c_star: tuple[Fraction, ...]
    bar_a_star: tuple[Fraction, ...]
    bar_k_star: tuple[Fraction, ...]
    bar_varphi: tuple[Fraction, ...]  # entries 1..d, stored from index 0

    def varphi(self, i: int) -> Fraction:
        if not 1 <= i <= self.d:
            raise IndexError(f"varphi index must be 1..{self.d}, got {i}")
        return self.bar_varphi[i - 1]


def build_racah_params(d: int, r: Fraction | int | str) -> RacahParams:
    """Build the barred array from (d, r); s = -r is hard-coded.

    Requires r != 0 and -1 < r < 1.  Also asserts, term by term, that no
    denominator parameter of the 4F3 evaluation can vanish within range.
    """
    if not isinstance(d, int) or d < 0:
        raise ParameterDomainError(f"d must be a natural number, got {d!r}")
    r = Fraction(r)
    if r == 0 or not (-1 < r < 1):
        raise ParameterDomainError(
            f"r must lie in (-1, 1) and be nonzero, got {format_rational(r)}"
        )

    bar_theta = tuple(Fraction(d - 2 * i) * (d - 2 * i + 1) for i in range(d + 1))
    bar_theta_star = tuple((Fraction(i) + (r - d) / 2) ** 2 for i in range(d + 1))

    bar_b = tuple(Fraction(d - i) * (d - i - r) for i in range(d)) + (Fraction(0),)
    bar_c = (Fraction(0),) + tuple(Fraction(i) * (i + r) for i in range(1, d + 1))
    bar_a = _diagonal_from(bar_theta[0], bar_b, bar_c, d)

    bar_k = _cumulative_quotients(bar_b, bar_c, d)
    bar_nu = Fraction(1)
    for j in range(1, d + 1):
        bar_nu *= (bar_theta[0] - bar_theta[j]) / bar_c[j]

    bar_b_star = tuple(
        Fraction(d - i)
        * (2 * (d - i) + 1)
        * (d - 2 * i - r - 1)
        * (d - 2 * i - r)
        / (2 * (2 * d - 4 * i - 1) * (2 * d - 4 * i + 1))
        for i in range(d)
    ) + (Fraction(0),)
    bar_c_star = (Fraction(0),) + tuple(
        Fraction(i)
        * (2 * i - 1)
        * (d - 2 * i + r + 1)
        * (d - 2 * i + r + 2)
        / (2 * (2 * d - 4 * i + 1) * (2 * d - 4 * i + 3))
        for i in range(1, d + 1)
    )
    bar_a_star = _diagonal_from(bar_theta_star[0], bar_b_star, bar_c_star, d)
    bar_k_star = _cumulative_quotients(bar_b_star, bar_c_star, d)

    bar_varphi = tuple(
        Fraction(i)
        * (i - d - 1)
        * (d - 2 * i - r + 1)
        * (d - 2 * i - r + 2)
        for i in range(1, d + 1)
    )

    _assert_4f3_denominators(d, r)

    return RacahParams(
        d=d,
        r=r,
        bar_theta=bar_theta,
        bar_theta_star=bar_theta_star,
        bar_b=bar_b,
        bar_c=bar_c,
        bar_a=bar_a,
        bar_k=bar_k,
        bar_nu=bar_nu,
        bar_b_star=bar_b_star,
        bar_c_star=bar_c_star,
        bar_a_star=bar_a_star,
        bar_k_star=bar_k_star,
        bar_varphi=bar_varphi,
    )


def _assert_4f3_denominators(d: int, r: Fraction) -> None:
    # Denominator parameters of the 4F3: -d, (r-d)/2, (r-d+1)/2.  The first
    # vanishes only beyond the truncation window; the half-shifted ones could
    # vanish only for integer r, excluded by the domain.  Checked, not assumed.
    for h in range(d + 1):
        for beta in ((r - d) / 2, (r - d + 1) / 2):
            if beta + h == 0:
                raise ParameterDomainError(
                    f"4F3 denominator parameter {format_rational(beta)} vanishes "
                    f"at term {h}"
                )


def index_map(d: int) -> tuple[int, ...]:
    """sigma with bar_theta[i] = theta[sigma(i)]: evens up, then odds down."""
    half = d // 2
    return tuple(2 * i if i <= half else 2 * (d - i) + 1 for i in range(d + 1))


def dual_params(q: RacahParams) -> DualHahnParams:
    """The unbarred parameter array at (d, r, s=-r)."""
    return build_params(q.d, q.r, -q.r)


def _require_shared(p: DualHahnParams, q: RacahParams) -> None:
    if p.d != q.d or p.r != q.r or p.s != -q.r:
        raise ValueError(
            "parameter mismatch: expected shared (d, r) with s = -r, got "
            f"dual (d={p.d}, r={format_rational(p.r)}, s={format_rational(p.s)}) "
            f"vs barred (d={q.d}, r={format_rational(q.r)})"
        )


def check_index_mapping(p: DualHahnParams, q: RacahParams) -> bool:
    """bar_theta is theta re-indexed by sigma, and bar_theta*_i equals
    (theta*_i + (r-d)/2)^2."""
    _require_shared(p, q)
    sigma = index_map(q.d)
    if any(q.bar_theta[i] != p.theta[sigma[i]] for i in range(q.d + 1)):
        return False
    half_shift = (q.r - q.d) / 2
    return all(
        q.bar_theta_star[i] == (p.theta_star[i] + half_shift) ** 2
        for i in range(q.d + 1)
    )


def check_unbarred_identities(p: DualHahnParams, q: RacahParams) -> bool:
    """bar_b = b, bar_c = c, bar_a = a, bar_k = k, bar_nu = nu, entrywise."""
    _require_shared(p, q)
    return (
        q.bar_b == p.b
        and q.bar_c == p.c
        and q.bar_a == p.a
        and q.bar_k == p.k
        and q.bar_nu == p.nu
    )


def check_starred_products(p: DualHahnParams, q: RacahParams) -> bool:
    """bar_b*, bar_c* as pairwise products of b*, c* (with the parity-split
    middle cases), and bar_k* as the sigma re-indexing of k*."""
    _require_shared(p, q)
    d, r = q.d, q.r
    half = d // 2
    middle = Fraction(d + 1) * r / 2

    for i in range(d):
        if i <= half - 1:
            expected = p.b_star[2 * i] * p.b_star[2 * i + 1]
        elif i == half:
            expected = middle * (p.b_star[d - 1] if d % 2 == 1 else p.c_star[d])
        else:
            expected = p.c_star[2 * (d - i)] * p.c_star[2 * (d - i) + 1]
        if q.bar_b_star[i] != expected:
            return False

    for i in range(1, d + 1):
        if i <= half:
            expected = p.c_star[2 * i] * p.c_star[2 * i - 1]
        elif i == half + 1:
            expected = middle * (p.c_star[d] if d % 2 == 1 else p.b_star[d - 1])
        else:
            expected = p.b_star[2 * (d - i + 1)] * p.b_star[2 * (d - i) + 1]
        if q.bar_c_star[i] != expected:
            return False

    sigma = index_map(d)
    return all(q.bar_k_star[i] == p.k_star[sigma[i]] for i in range(d + 1))


def check_varphi(q: RacahParams) -> bool:
    """bar_varphi_i against its defining quotient, computed directly from
    bar_b and differences of bar_theta*."""
    for i in range(1, q.d + 1):
        num = Fraction(1)
        for l in range(i):
            num *= q.bar_theta_star[i] - q.bar_theta_star[l]
        den = Fraction(1)
        for l in range(i - 1):
            den *= q.bar_theta_star[i - 1] - q.bar_theta_star[l]
        if q.varphi(i) != q.bar_b[i - 1] * num / den:
            return False
    return True


def eval_table_4F3(q: RacahParams) -> ValueTable:
    """u_i(bar_theta_j) as the terminating 4F3 at unit argument."""
    d, r = q.d, q.r
    rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            row.append(
                hypergeom_terminating(
                    [
                        Fraction(-i),
                        i - d + r,
                        Fraction(-j),
                        j - d - Fraction(1, 2),
                    ],
                    [Fraction(-d), (r - d) / 2, (r - d + 1) / 2],
                    terms=i,
                )
            )
        rows.append(row)
    return ValueTable(RationalMatrix.from_rows(rows))


def check_racah_orthogonality(q: RacahParams, table: ValueTable) -> bool:
    """Barred orthogonality sum_h u_i u_j bar_k*_h == delta_ij bar_nu/bar_k_i,
    and each summand is the sigma re-indexing of a dual Hahn summand."""
    d = q.d
    p = dual_params(q)
    U = eval_table_hypergeometric(p)
    sigma = index_map(d)
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                if (
                    table.at(i, h) * table.at(j, h) * q.bar_k_star[h]
                    != U.at(i, sigma[h]) * U.at(j, sigma[h]) * p.k_star[sigma[h]]
                ):
                    return False
    for i in range(d + 1):
        for j in range(i, d + 1):
            total = Fraction(0)
            for h in range(d + 1):
                total += table.at(i, h) * table.at(j, h) * q.bar_k_star[h]
            expected = q.bar_nu / q.bar_k[i] if i == j else Fraction(0)
            if total != expected:
                return False
    return True


def check_barred_recurrence(q: RacahParams, table: ValueTable) -> bool:
    """x u_i(x) = bar_b_i u_{i+1}(x) + bar_a_i u_i(x) + bar_c_i u_{i-1}(x) at
    the barred nodes, boundary terms dropped through zero coefficients."""
    d = q.d
    for i in range(d + 1):
        for j in range(d + 1):
            rhs = q.bar_a[i] * table.at(i, j)
            if i < d:
                rhs += q.bar_b[i] * table.at(i + 1, j)
            if i > 0:
                rhs += q.bar_c[i] * table.at(i - 1, j)
            if q.bar_theta[j] * table.at(i, j) != rhs:
                return False
    return True


def check_barred_matrices(p: DualHahnParams, q: RacahParams) -> bool:
    """The two barred representation pairs, rebuilt from the unbarred
    machinery.

    u-basis: the tridiagonal matrix of L equals tridiag(bar_a, bar_b, bar_c)
    and the diagonal of the shifted square equals diag(bar_theta*).
    Reordered u*-basis (first candidate ordering): the shifted square equals
    tridiag(bar_a*, bar_b*, bar_c*) and the diagonal of L equals
    diag(bar_theta).
    """
    _require_shared(p, q)
    d = q.d
    shift = (q.r - q.d) / 2

    if matrix_L_u_basis(p) != RationalMatrix.tridiagonal(
        diag=q.bar_a, sub=q.bar_b[:d], sup=q.bar_c[1 : d + 1]
    ):
        return False
    expected_diag = tuple((p.theta_star[i] + shift) ** 2 for i in range(d + 1))
    if expected_diag != q.bar_theta_star:
        return False

    square = lstar_shift_square(p, shift)
    if d >= 1:
        perm = candidate_orderings(d)[0].perm
        reordered = square.permuted(perm)
    else:
        reordered = square
    if reordered != RationalMatrix.tridiagonal(
        diag=q.bar_a_star, sub=q.bar_b_star[:d], sup=q.bar_c_star[1 : d + 1]
    ):
        return False
    sigma = index_map(d)
    return tuple(p.theta[sigma[i]] for i in range(d + 1)) == q.bar_theta


# -- the textbook Racah route ------------------------------------------------


def standard_racah_eval(
    d: int, r: Fraction | int | str, i: int, x: Fraction | int
) -> Fraction:
    """Textbook Racah 4F3 with parameter set
    (N, alpha, beta, gamma, delta) = (d, -d-1, r, (r-d-1)/2, -(r+d)/2 - 1),
    evaluated at node index x."""
    r = Fraction(r)
    x = Fraction(x)
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
    r = Fraction(r)
    s = -r
    aff1 = (Fraction(1), Fraction(d) * (d + r + s + 1))
    aff2 = (Fraction(4), Fraction(d) * (d + 1))
    return aff1, aff2
