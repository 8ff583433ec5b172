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

A search point costs O(d) integer operations.  The ordering decision reads
only which off-diagonal entries of the square are zero, and a product in a
field is zero exactly when a factor is, so the four off-diagonal cases of
the paper's five-case closed form are read as a zero pattern
(`shift_square_pattern`): the factors b*_i, c*_i are tested as they stand,
and 2 lambda + a*_i + a*_{i+1} over the common denominator of a* and
lambda.  Each candidate is tested on that pattern (`banded_witness`), and
the u-basis facts are read from b, c and theta* over one denominator.  The
five cases as `Fraction` values are written once, in the dense closed form
(`lstar_shift_square_closed_form`).  The dense product
(`lstar_shift_square`), which shares no code with the closed form, and the
path test on it run only as the `exhaustive` oracle.  The dual
almost-bipartite test reads b*, c* and a* directly, in O(d).
`search_square_preserving` yields records as they are decided and sends
points to worker processes in chunks.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Mapping, Optional

from .hyper import format_rational
from .matrices import RationalMatrix
from .params import ParameterArray, build_params, check_domain
from .representations import _over_common_denominator, matrix_Lstar_ustar_basis
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


def canonical_shift(p: ParameterArray) -> Fraction:
    """(r - d)/2, the shift used throughout the square construction."""
    return (p.r - p.d) / 2


def lstar_shift_square(p: ParameterArray, shift: Fraction | int) -> RationalMatrix:
    """([L*]_{u*-basis} + shift I)^2 by explicit matrix multiplication."""
    m = matrix_Lstar_ustar_basis(p).plus_scalar(Fraction(shift))
    return m @ m


def shift_square_pattern(
    p: ParameterArray, shift: Fraction | int
) -> dict[tuple[int, int], bool]:
    """Which off-diagonal entries (i, j), 0 < |i - j| <= 2, of the square's
    closed form (`lstar_shift_square_closed_form`) are nonzero, on integers.
    Every other off-diagonal entry is zero.  The diagonal case is left out: a
    reordering keeps the diagonal on the diagonal, so no ordering decision
    reads it.

    Each entry is a product of two factors, nonzero exactly when both are.
    The b*_i and c*_i are tested as they stand; with a*_i = A_i / E over
    one denominator and lambda = L / M, the middle factor
    2 lambda + a*_i + a*_{i+1} is nonzero iff 2 L E + M (A_i + A_{i+1}) is.
    """
    L, M = Fraction(shift).as_integer_ratio()
    A, E = _over_common_denominator(p.a_star)
    d = p.d
    b = list(map(bool, p.b_star))
    c = list(map(bool, p.c_star))
    twice = 2 * L * E
    pattern = {}
    for i in range(d):
        middle = twice + M * (A[i] + A[i + 1]) != 0
        pattern[i, i + 1] = c[i + 1] and middle
        pattern[i + 1, i] = b[i] and middle
    for i in range(d - 1):
        pattern[i, i + 2] = c[i + 1] and c[i + 2]
        pattern[i + 2, i] = b[i] and b[i + 1]
    return pattern


def lstar_shift_square_closed_form(
    p: ParameterArray, shift: Fraction | int
) -> RationalMatrix:
    """The same square from its five-case closed form (independent route).
    With lambda = shift and the out-of-range b*_{-1}, c*_{d+1} taken as zero:

        (i, i):   (lambda + a*_i)^2 + b*_{i-1} c*_i + b*_i c*_{i+1}
        (i, i+1): c*_{i+1} (2 lambda + a*_i + a*_{i+1})
        (i+1, i): b*_i (2 lambda + a*_i + a*_{i+1})
        (i, i+2): c*_{i+1} c*_{i+2}
        (i+2, i): b*_i b*_{i+1}

    Every other entry of the square of a tridiagonal matrix is zero.  The
    verdict reads only which off-diagonal entries vanish
    (`shift_square_pattern`), never these values.
    """
    lam = Fraction(shift)
    d = p.d
    n = d + 1
    a, b, c = p.a_star, p.b_star, p.c_star
    entries = [Fraction(0)] * (n * n)
    for i in range(n):
        entries[i * n + i] = (
            (lam + a[i]) ** 2
            + (b[i - 1] * c[i] if i > 0 else 0)
            + (b[i] * c[i + 1] if i < d else 0)
        )
        if i < d:
            middle = 2 * lam + a[i] + a[i + 1]
            entries[i * n + i + 1] = c[i + 1] * middle
            entries[(i + 1) * n + i] = b[i] * middle
        if i < d - 1:
            entries[i * n + i + 2] = c[i + 1] * c[i + 2]
            entries[(i + 2) * n + i] = b[i] * b[i + 1]
    return RationalMatrix(n, n, tuple(entries))


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


def banded_witness(
    square: Mapping[tuple[int, int], Fraction | bool], d: int
) -> Optional[BasisOrdering]:
    """The first candidate ordering under which a (d+1)x(d+1) matrix, given
    by its off-diagonal entries within two of the diagonal (every other
    off-diagonal entry zero), is irreducible tridiagonal; None if no
    candidate works.  Only the truth of each entry is read: the verdict
    hands it the square's zero pattern (`shift_square_pattern`).

    An ordering p makes the matrix irreducible tridiagonal exactly when the
    d pairs (p[k], p[k+1]) are nonzero in both directions and no other
    off-diagonal entry is nonzero.  Those 2d entries are distinct, so the
    second part is a count of the nonzero entries: O(d) per candidate.
    """
    if d == 0:
        return BasisOrdering((0,))
    nonzero = {key for key, v in square.items() if v}
    if len(nonzero) != 2 * d:
        return None
    for ordering in candidate_orderings(d):
        perm = ordering.perm
        if all(
            (a, b) in nonzero and (b, a) in nonzero for a, b in zip(perm, perm[1:])
        ):
            return ordering
    return None


def verify_leonard_pair_square(
    p: ParameterArray, shift: Fraction | int, exhaustive: bool = False
) -> LeonardPairReport:
    """Decide whether (L, (L* + shift)^2) is a Leonard pair, in O(d).

    In the u-basis the matrix of L is irreducible tridiagonal, which is the
    nonzero b_0..b_{d-1} and c_1..c_d, and the matrix of the shifted square is
    diagonal with entries (theta*_i + shift)^2 = (i + shift)^2; both facts are
    verified rather than assumed, including distinctness of the diagonal.
    The ordered-basis condition on the u*-side is decided by the four
    candidate orderings on the closed form's zero pattern
    (`banded_witness` on `shift_square_pattern`).  Every test runs on
    integers: with theta*_i = T_i / E and shift = L / M, (theta*_i + shift)^2
    is x_i^2 / (E M)^2 with x_i = T_i M + L E, so the diagonal condition is
    x_i^2 == ((i M + L) E)^2 and distinctness is that of the x_i^2.  With
    `exhaustive` the pattern of the dense product is also decided by path
    recognition, which finds every witness ordering at any d and shares no
    code with the closed form, as an independent oracle; any disagreement
    raises InternalInconsistencyError.
    """
    lam = Fraction(shift)
    d = p.d
    trace: list[tuple[str, bool]] = []

    theta_simple = len({v.as_integer_ratio() for v in p.theta}) == d + 1
    trace.append(("u*-basis: matrix of L diagonal with distinct entries", theta_simple))

    L_u_ok = all(p.b[:d]) and all(p.c[1:])
    trace.append(("u-basis: matrix of L irreducible tridiagonal", L_u_ok))

    L, M = lam.as_integer_ratio()
    T, E = _over_common_denominator(p.theta_star)
    LE = L * E
    x_sq = [(t * M + LE) ** 2 for t in T]
    diag_ok = all(x == ((i * M + L) * E) ** 2 for i, x in enumerate(x_sq))
    trace.append(("u-basis: matrix of (L*+shift)^2 diagonal", diag_ok))

    simple_ok = len(set(x_sq)) == d + 1
    trace.append(("u-basis: (L*+shift)^2 diagonal entries distinct", simple_ok))

    witness = banded_witness(shift_square_pattern(p, lam), d)
    found = witness is not None
    trace.append(
        ("u*-basis: candidate reordering makes the square irreducible tridiagonal", found)
    )

    if exhaustive:
        all_witnesses = scan_tridiagonal_orderings(lstar_shift_square(p, lam))
        agree = witness.perm in all_witnesses if found else not all_witnesses
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


def theorem_conditions(
    p: ParameterArray, shift: Fraction | int
) -> tuple[bool, bool, bool]:
    """(r != 0, r + s == 0, 2*shift == r - d)."""
    lam = Fraction(shift)
    return (p.r != 0, p.r + p.s == 0, 2 * lam == p.r - p.d)


def d2_condition(p: ParameterArray, shift: Fraction | int) -> bool:
    """d = 2 characterization: r != s and 2(shift+1) is one of
    (r-s)/(r+s+2), (s-r)/(r+s+4)."""
    if p.d != 2:
        raise ValueError(f"d=2 condition evaluated at d={p.d}")
    lam = Fraction(shift)
    if p.r == p.s:
        return False
    roots = {(p.r - p.s) / (p.r + p.s + 2), (p.s - p.r) / (p.r + p.s + 4)}
    return 2 * (lam + 1) in roots


def is_dual_almost_bipartite(p: ParameterArray, shift: Fraction | int) -> bool:
    """[L*]_{u*-basis} + shift I must be irreducible tridiagonal with zero
    diagonal except a nonzero last entry.  Read from the array in O(d): the
    matrix is tridiagonal with subdiagonal b*_0..b*_{d-1}, superdiagonal
    c*_1..c*_d and diagonal a*_i + shift."""
    lam = Fraction(shift)
    d = p.d
    return (
        all(p.b_star[:d])
        and all(p.c_star[1:])
        and all(a + lam == 0 for a in p.a_star[:d])
        and p.a_star[d] + lam != 0
    )


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
    """Every grid point in (d, r, s, shift) order.  Each list is sorted once
    as (value, multiplicity) pairs, and a per-point s = -r or canonical shift
    is a single option, so the nested product is already in order; a point
    repeats as often as its coordinates do."""

    def ordered(values):
        return None if values is None else sorted(Counter(map(Fraction, values)).items())

    s_values = ordered(grid.s_values)
    shift_values = ordered(grid.shift_values)
    points = []
    for (d, nd), (r, nr) in product(sorted(Counter(grid.d_values).items()),
                                    ordered(grid.r_values)):
        for s, ns in s_values if s_values is not None else ((-r, 1),):
            shifts = shift_values if shift_values is not None else (((r - d) / 2, 1),)
            for lam, nl in shifts:
                points += [(d, r, s, lam, grid.exhaustive)] * (nd * nr * ns * nl)
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


def search_square_preserving(grid: SearchGrid) -> Iterator[SearchRecord]:
    """Evaluate every grid point, yielding records in deterministic
    (d, r, s, shift) order as they are decided.

    Fans out over min(LEONARD_LAB_THREADS, cores, points) processes when
    that exceeds one; each point is independent, and the points go out in
    about four chunks per worker and come back in grid order.  The worker
    setting and the domain of every point are checked before the first
    record is yielded.  Only the (L, (L*+shift)^2) branch of square
    preservation is examined; the (L^2, L*) branch is reported as unexamined
    downstream.
    """
    points = _grid_points(grid)
    raw = os.environ.get(THREADS_ENV_VAR, "1") or "1"
    try:
        max_workers = int(raw)
    except ValueError:
        max_workers = 0
    if max_workers < 1:
        raise SettingError(f"{THREADS_ENV_VAR} must be an integer >= 1, got {raw!r}")
    for d, r, s, _, _ in points:
        check_domain(d, r, s)
    # The pool forks all its workers at the first submit: no more of them
    # than there are cores or points.
    workers = min(max_workers, os.cpu_count() or 1, len(points))
    if workers > 1:
        chunksize = math.ceil(len(points) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(_evaluate_point, points, chunksize=chunksize)
    else:
        for point in points:
            yield _evaluate_point(point)
