"""Leonard-pair verification for the pair (L, (L* + shift)^2).

Why a finite search decides the ordered-basis condition: the eigenvalues
theta_i of L are mutually distinct, so every eigenbasis of L consists of
scalar multiples of the u*_i in some order.  Rescaling a basis vector
multiplies a row and a column of the representing matrix by nonzero scalars,
which leaves the zero/nonzero pattern unchanged; hence the matrix of
(L* + shift)^2 is irreducible tridiagonal in *some* L-eigenbasis iff it is so
after *some reordering* of the u*-basis.  That reordering question has a
complete answer on the pattern alone: the off-diagonal nonzeros must form a
single path through all d+1 indices, nonzero in both directions, and the
path read from either end is then the only witness (see `scan`).  The four
closed-form candidate orderings are checked first; the path test serves as
the independent oracle behind them.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence

from .hyper import format_rational
from .matrices import RationalMatrix
from .params import DualHahnParams, build_params
from .representations import (
    matrix_L_u_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
)
from .scan import scan_tridiagonal_orderings

THREADS_ENV_VAR = "LEONARD_LAB_THREADS"


class InternalInconsistencyError(RuntimeError):
    """The exhaustive oracle disagreed with the candidate orderings (a bug)."""


class SettingError(ValueError):
    """A malformed environment setting: a usage error, not a bad parameter."""


@dataclass(frozen=True)
class BasisOrdering:
    """Reordering of the u*-basis: new basis vector i is u*_{perm[i]}."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"not a permutation: {self.perm}")


@dataclass(frozen=True)
class LeonardPairReport:
    verdict: bool
    witness: Optional[BasisOrdering]
    condition_trace: tuple[tuple[str, bool], ...]
    shift: Fraction

    def first_failed(self) -> Optional[str]:
        for name, ok in self.condition_trace:
            if not ok:
                return name
        return None


def is_irreducible_tridiagonal(m: RationalMatrix) -> bool:
    """Zero outside the three central diagonals, nonzero on both the sub- and
    superdiagonal."""
    if not m.is_square:
        raise ValueError("irreducible-tridiagonal test needs a square matrix")
    n = m.rows
    for i in range(n):
        for j in range(n):
            e = m.at(i, j)
            if abs(i - j) > 1 and e != 0:
                return False
            if abs(i - j) == 1 and e == 0:
                return False
    return True


def canonical_shift(p: DualHahnParams) -> Fraction:
    """(r - d)/2, the shift used throughout the square construction."""
    return (p.r - p.d) / 2


def lstar_shift_square(p: DualHahnParams, shift: Fraction | int) -> RationalMatrix:
    """([L*]_{u*-basis} + shift I)^2 by explicit matrix multiplication."""
    m = matrix_Lstar_ustar_basis(p).plus_scalar(Fraction(shift))
    return m @ m


def lstar_shift_square_closed_form(
    p: DualHahnParams, shift: Fraction | int
) -> RationalMatrix:
    """The same square from its five-case closed form (independent route).

    Out-of-range b*_{-1} and c*_{d+1} only ever multiply structurally absent
    positions and are taken as zero.
    """
    lam = Fraction(shift)
    d = p.d

    def bstar(i: int) -> Fraction:
        return p.b_star[i] if 0 <= i <= d else Fraction(0)

    def cstar(i: int) -> Fraction:
        return p.c_star[i] if 0 <= i <= d else Fraction(0)

    rows = []
    for i in range(d + 1):
        row = []
        for j in range(d + 1):
            if j - i == 2:
                row.append(cstar(i + 1) * cstar(i + 2))
            elif j - i == 1:
                row.append(cstar(i + 1) * (2 * lam + p.a_star[i] + p.a_star[i + 1]))
            elif i == j:
                row.append(
                    bstar(i) * cstar(i + 1)
                    + bstar(i - 1) * cstar(i)
                    + (lam + p.a_star[i]) ** 2
                )
            elif i - j == 1:
                row.append(bstar(i - 1) * (2 * lam + p.a_star[i] + p.a_star[i - 1]))
            elif i - j == 2:
                row.append(bstar(i - 1) * bstar(i - 2))
            else:
                row.append(Fraction(0))
        rows.append(row)
    return RationalMatrix.from_rows(rows)


def column_sums(m: RationalMatrix) -> list[Fraction]:
    return [
        sum((m.at(i, j) for i in range(m.rows)), Fraction(0)) for j in range(m.cols)
    ]


def candidate_orderings(d: int) -> list[BasisOrdering]:
    """The four closed-form orderings, in display order: evens-then-odds-down,
    odds-then-evens-down, and their two mirror images."""
    if d < 1:
        raise ValueError("candidate orderings need d >= 1")
    half_floor = d // 2
    half_ceil = (d + 1) // 2

    first = tuple(2 * i if i <= half_floor else 2 * (d - i) + 1 for i in range(d + 1))
    second = tuple(
        2 * i + 1 if i <= half_ceil - 1 else 2 * (d - i) for i in range(d + 1)
    )
    third = tuple(d - 2 * i if i <= half_floor else 2 * i - d - 1 for i in range(d + 1))
    fourth = tuple(
        d - 2 * i - 1 if i <= half_ceil - 1 else 2 * i - d for i in range(d + 1)
    )
    return [
        BasisOrdering(first),
        BasisOrdering(second),
        BasisOrdering(third),
        BasisOrdering(fourth),
    ]


def verify_leonard_pair_square(
    p: DualHahnParams, shift: Fraction | int, exhaustive: bool = False
) -> LeonardPairReport:
    """Decide whether (L, (L* + shift)^2) is a Leonard pair.

    In the u-basis the matrix of L is irreducible tridiagonal and the matrix
    of the shifted square is diagonal with entries (i + shift)^2; both facts
    are verified rather than assumed, including distinctness of the diagonal.
    The ordered-basis condition on the u*-side is decided by the four
    candidate orderings.  With `exhaustive` the pattern is also decided by
    path recognition, which finds every witness ordering at any d, as an
    independent oracle; any disagreement raises InternalInconsistencyError.
    """
    lam = Fraction(shift)
    d = p.d
    trace: list[tuple[str, bool]] = []

    theta_simple = len(set(p.theta)) == d + 1
    trace.append(("u*-basis: matrix of L diagonal with distinct entries", theta_simple))

    L_u = matrix_L_u_basis(p)
    L_u_ok = is_irreducible_tridiagonal(L_u) if d >= 1 else True
    trace.append(("u-basis: matrix of L irreducible tridiagonal", L_u_ok))

    square_u = matrix_Lstar_u_basis_shift_square(p, lam)
    diag_ok = square_u.is_diagonal()
    diag_vals = square_u.diagonal_entries()
    expected_diag = tuple((Fraction(i) + lam) ** 2 for i in range(d + 1))
    diag_ok = diag_ok and diag_vals == expected_diag
    trace.append(("u-basis: matrix of (L*+shift)^2 diagonal", diag_ok))

    simple_ok = len(set(diag_vals)) == d + 1
    trace.append(("u-basis: (L*+shift)^2 diagonal entries distinct", simple_ok))

    square_ustar = lstar_shift_square(p, lam)
    witness: Optional[BasisOrdering] = None
    if d == 0:
        witness = BasisOrdering((0,))
        found = True
    else:
        for ordering in candidate_orderings(d):
            if is_irreducible_tridiagonal(square_ustar.permuted(ordering.perm)):
                witness = ordering
                break
        found = witness is not None
    trace.append(
        ("u*-basis: candidate reordering makes the square irreducible tridiagonal", found)
    )

    if exhaustive:
        all_witnesses = scan_tridiagonal_orderings(square_ustar)
        agree = bool(all_witnesses) == found
        # key name kept as is: readers of the CLI JSON match on it
        trace.append(("exhaustive permutation oracle agrees with candidates", agree))
        if not agree:
            raise InternalInconsistencyError(
                f"candidate orderings say {found} but the ordering scan found "
                f"{len(all_witnesses)} witnesses at d={d}, r={format_rational(p.r)}, "
                f"s={format_rational(p.s)}, shift={format_rational(lam)}"
            )

    verdict = theta_simple and L_u_ok and diag_ok and simple_ok and found
    return LeonardPairReport(
        verdict=verdict, witness=witness, condition_trace=tuple(trace), shift=lam
    )


def matrix_Lstar_u_basis_shift_square(
    p: DualHahnParams, shift: Fraction | int
) -> RationalMatrix:
    """([L*]_{u-basis} + shift I)^2; diagonal since [L*]_{u-basis} is."""
    m = matrix_Lstar_u_basis(p).plus_scalar(Fraction(shift))
    return m @ m


def theorem_conditions(
    p: DualHahnParams, shift: Fraction | int
) -> tuple[bool, bool, bool]:
    """(r != 0, r + s == 0, 2*shift == r - d)."""
    lam = Fraction(shift)
    return (p.r != 0, p.r + p.s == 0, 2 * lam == p.r - p.d)


def d2_condition(p: DualHahnParams, shift: Fraction | int) -> bool:
    """d = 2 characterization: r != s and 2(shift+1) is one of
    (r-s)/(r+s+2), (s-r)/(r+s+4)."""
    if p.d != 2:
        raise ValueError(f"d=2 condition evaluated at d={p.d}")
    lam = Fraction(shift)
    if p.r == p.s:
        return False
    roots = {(p.r - p.s) / (p.r + p.s + 2), (p.s - p.r) / (p.r + p.s + 4)}
    return 2 * (lam + 1) in roots


def is_dual_almost_bipartite(p: DualHahnParams, shift: Fraction | int) -> bool:
    """[L*]_{u*-basis} + shift I must be irreducible tridiagonal with zero
    diagonal except a nonzero last entry."""
    lam = Fraction(shift)
    m = matrix_Lstar_ustar_basis(p).plus_scalar(lam)
    if not is_irreducible_tridiagonal(m):
        return False
    diag = m.diagonal_entries()
    return all(v == 0 for v in diag[:-1]) and diag[-1] != 0


# -- grid search -------------------------------------------------------------


@dataclass(frozen=True)
class SearchGrid:
    """Cartesian grid of (d, r, s, shift) points.

    `s_values` None means s = -r at every point; `shift_values` None means
    the canonical shift (r-d)/2 per point.
    """

    d_values: tuple[int, ...]
    r_values: tuple[Fraction, ...]
    s_values: Optional[tuple[Fraction, ...]] = None
    shift_values: Optional[tuple[Fraction, ...]] = None
    exhaustive: bool = False


@dataclass(frozen=True)
class SearchRecord:
    d: int
    r: Fraction
    s: Fraction
    shift: Fraction
    report: LeonardPairReport
    theorem_flags: tuple[bool, bool, bool]

    @property
    def theorem_predicted(self) -> bool:
        return all(self.theorem_flags)


def _grid_points(grid: SearchGrid) -> list[tuple[int, Fraction, Fraction, Fraction, bool]]:
    points = []
    for d, r in product(grid.d_values, grid.r_values):
        s_opts = grid.s_values if grid.s_values is not None else (-r,)
        for s in s_opts:
            shifts = (
                grid.shift_values
                if grid.shift_values is not None
                else ((Fraction(r) - d) / 2,)
            )
            for lam in shifts:
                points.append((d, Fraction(r), Fraction(s), Fraction(lam), grid.exhaustive))
    points.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    return points


def _evaluate_point(
    point: tuple[int, Fraction, Fraction, Fraction, bool]
) -> SearchRecord:
    d, r, s, lam, exhaustive = point
    p = build_params(d, r, s)
    report = verify_leonard_pair_square(p, lam, exhaustive=exhaustive)
    return SearchRecord(
        d=d, r=r, s=s, shift=lam, report=report, theorem_flags=theorem_conditions(p, lam)
    )


def search_square_preserving(
    grid: SearchGrid, max_workers: Optional[int] = None
) -> list[SearchRecord]:
    """Evaluate every grid point, in deterministic (d, r, s, shift) order.

    Fans out over processes when LEONARD_LAB_THREADS (or `max_workers`)
    exceeds one; each point is independent, results are merged back in grid
    order.  Only the (L, (L*+shift)^2) branch of square preservation is
    examined; the (L^2, L*) branch is reported as unexamined downstream.
    """
    points = _grid_points(grid)
    if max_workers is None:
        raw = os.environ.get(THREADS_ENV_VAR, "1") or "1"
        try:
            max_workers = int(raw)
        except ValueError:
            raise SettingError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if max_workers > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(_evaluate_point, points))
    else:
        records = [_evaluate_point(pt) for pt in points]
    return records


def search_hits(records: Iterable[SearchRecord]) -> list[SearchRecord]:
    return [rec for rec in records if rec.report.verdict]


# -- JSON --------------------------------------------------------------------


def report_to_json_dict(p: DualHahnParams, report: LeonardPairReport) -> dict:
    return {
        "d": p.d,
        "r": format_rational(p.r),
        "s": format_rational(p.s),
        "lambda": format_rational(report.shift),
        "verdict": report.verdict,
        "witness": list(report.witness.perm) if report.witness is not None else None,
        "conditions": {name: ok for name, ok in report.condition_trace},
        "firstFailed": report.first_failed(),
    }


def search_record_to_json_dict(rec: SearchRecord) -> dict:
    r_nonzero, r_plus_s_zero, shift_canonical = rec.theorem_flags
    return {
        "d": rec.d,
        "r": format_rational(rec.r),
        "s": format_rational(rec.s),
        "lambda": format_rational(rec.shift),
        "verdict": rec.report.verdict,
        "witness": list(rec.report.witness.perm) if rec.report.witness else None,
        "theorem": {
            "rNonzero": r_nonzero,
            "rPlusSZero": r_plus_s_zero,
            "lambdaCanonical": shift_canonical,
        },
        "theoremPredicted": rec.theorem_predicted,
        "notes": {"squaredFirstOperatorBranch": "unexamined"},
    }
