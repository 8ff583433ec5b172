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
closed-form candidate orderings, one permutation sigma (evens up, then odds
down) with its reversal, its mirror and the mirror's reversal, are the
orderings a verdict reports; the path test serves as the independent oracle
behind them.

A search run costs O(d) integer operations once per array, and then O(1)
per shift when theta*_i = i, as on every dual Hahn array; for any other
theta* a shift costs O(d).  The pattern of the square is fixed by the
parameter array: each off-diagonal entry of the paper's five-case closed
form is a product of b*_i, c*_i and the middle factors
m_i = 2 lambda + a*_i + a*_{i+1}, and a product in a field is zero exactly
when a factor is.  So the ordering is read off those factors
(`_ArrayFacts.witness`): no b* or c* zero, and exactly one nonzero middle
factor, at an end.  Each m_i vanishes at one shift, its root; the array's
facts hold every root and the one shift, if any, at which all but the last
(or all but the first) vanish, so a shift's ordering is a few comparisons of
integer pairs.  The u-basis facts are read from b, c and theta*: with
theta*_i = i the diagonal test always holds and the entries (i + lambda)^2
are distinct unless 2 lambda is an integer in [-(2d - 1), -1].  The five
cases as `Fraction` values are written once, in the dense closed form
(`lstar_shift_square_closed_form`).  The dense product
(`lstar_shift_square`), which shares no code with the closed form, and the
path test on it run only as the `exhaustive` oracle, which still decides
every shift.  The dual almost-bipartite test reads b*, c* and a* directly,
in O(d).  `search_square_preserving` walks the grid once into runs of equal
(d, r, s) and decides each run's shifts in this process, yielding records
run by run.  A run reads its array facts once, straight from the integer
pairs of the closed forms (`params._dual_hahn_pairs`), after the invariant
test that `parameter_array` runs on every array: theta simple, b, c, b* and
c* nonzero, and the roots of the m_i from the pair sums of a* as integer
pairs (`_ArrayFacts.from_pairs`).  It builds no Fraction array unless the
`exhaustive` oracle needs one, and then once per run.  The four candidate
orderings are built once per d (`_candidates`) and shared by every run.
`verify_leonard_pair_square` decides one shift on the same facts, read from
a built array (`_ArrayFacts(p)`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import product
from math import gcd
from typing import Iterator, Optional

from .hyper import _over_common_denominator, exact_rational, format_rational
from .matrices import RationalMatrix
from .params import (
    ParameterArray,
    _check_invariants,
    _diagonal_pairs,
    _dual_hahn_pairs,
    build_params,
    check_domain,
)
from .representations import matrix_Lstar_ustar_basis
from .scan import scan_tridiagonal_orderings


class InternalInconsistencyError(RuntimeError):
    """The exhaustive oracle disagreed with the candidate orderings (a bug)."""


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
    m = matrix_Lstar_ustar_basis(p).plus_scalar(shift)
    return m @ m


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
    verdict reads only which factors of the off-diagonal cases vanish
    (`_ArrayFacts.witness`), never these values.
    """
    lam = exact_rational("shift", shift)
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


def _sigma(d: int) -> tuple[int, ...]:
    """sigma_i = 2i if 2i <= d, else 2(d - i) + 1: evens up, then odds down."""
    return tuple(2 * i if 2 * i <= d else 2 * (d - i) + 1 for i in range(d + 1))


def _middle_roots(a):
    """The shift at which each middle factor 2 shift + a_i + a_{i+1}
    vanishes, from integer pairs (n_i, q_i) with q_i > 0, as the reduced
    pair (numerator, denominator > 0) of `Fraction.as_integer_ratio`."""
    roots = []
    for (n, q), (n1, q1) in zip(a, a[1:]):
        num, den = -(n * q1 + n1 * q), 2 * q * q1
        g = gcd(num, den)
        roots.append((num // g, den // g))
    return roots


def _common_root(roots):
    """The one shift at which every one of `roots` lies, or None."""
    return roots[0] if roots and roots.count(roots[0]) == len(roots) else None


@cache
def _candidates(d: int) -> tuple[BasisOrdering, ...]:
    """The four candidate orderings of `candidate_orderings`, built and
    validated once per d."""
    sigma = _sigma(d)
    mirror = tuple(d - k for k in sigma)
    return tuple(BasisOrdering(perm) for perm in (sigma, sigma[::-1], mirror, mirror[::-1]))


def candidate_orderings(d: int) -> list[BasisOrdering]:
    """The four closed-form orderings, in display order: sigma, sigma
    reversed, the mirror k -> d - k of sigma, and the mirror reversed.

    sigma (`_sigma`) is also the index map of the barred array
    (`racah.index_map`).  A path and its reversal have the same edges, so
    a verdict's witness is only ever the first or the third candidate, and
    it is that very object (`_candidates`)."""
    if d < 1:
        raise ValueError("candidate orderings need d >= 1")
    return list(_candidates(d))


class _ArrayFacts:
    """The facts of one parameter array that every shift's verdict reads,
    read once in O(d): whether theta is simple, whether b and c are nonzero,
    theta* over one denominator and whether it is the index (theta*_i = i),
    whether a b* or c* is zero, the root of each middle factor
    m_i = 2 shift + a*_i + a*_{i+1}, the one shift, if any, at which
    m_0..m_{d-2} all vanish (`sigma_shift`), and the one at which
    m_1..m_{d-1} all vanish (`mirror_shift`).  On top of them a shift costs
    O(1) when theta* is the index and O(d) otherwise (`verify`).
    `_ArrayFacts(p)` reads them from an array; `from_pairs` reads a dual
    Hahn array's from its integer pairs and builds the array only if the
    `exhaustive` oracle needs it."""

    def __init__(self, p: ParameterArray):
        d = p.d
        self.d, self.r, self.s, self._array = d, p.r, p.s, p
        self.theta_simple = len({v.as_integer_ratio() for v in p.theta}) == d + 1
        self.u_irreducible = all(p.b[:d]) and all(p.c[1:])
        self.theta_star, self.theta_star_den = _over_common_denominator(p.theta_star)
        self.theta_star_is_index = (
            self.theta_star_den == 1 and self.theta_star == list(range(d + 1)))
        self.cut = not (all(p.b_star[:d]) and all(p.c_star[1:]))
        self._read_ordering_facts(_middle_roots([v.as_integer_ratio() for v in p.a_star]))

    @classmethod
    def from_pairs(cls, d: int, r: Fraction, s: Fraction, pairs) -> "_ArrayFacts":
        """The facts of the dual Hahn array of (d, r, s) from its integer
        pairs (theta, b, c, b*, c*) (`_dual_hahn_pairs`), checked by the
        invariant test of `parameter_array`, which raises as it does.  A
        valid array has theta simple and every interior b, c, b*, c*
        nonzero; theta*_i = i, so a*_i = -b*_i - c*_i."""
        theta, b, c, b_star, c_star = pairs
        _check_invariants(d, theta, b, c, b_star, c_star)
        facts = cls.__new__(cls)
        facts.d, facts.r, facts.s, facts._array = d, r, s, None
        facts.theta_simple = facts.u_irreducible = True
        facts.theta_star, facts.theta_star_den = range(d + 1), 1
        facts.theta_star_is_index = True
        facts.cut = False
        facts._read_ordering_facts(_middle_roots(_diagonal_pairs((0, 1), b_star, c_star)))
        return facts

    def _read_ordering_facts(self, roots):
        self.roots = roots
        self.sigma_shift = _common_root(roots[:-1])
        self.mirror_shift = _common_root(roots[1:])
        candidates = _candidates(self.d)
        self.sigma, self.mirror = candidates[0], candidates[2]

    def array(self) -> ParameterArray:
        """The parameter array, built on first use by `from_pairs` facts."""
        if self._array is None:
            self._array = build_params(self.d, self.r, self.s)
        return self._array

    def witness(self, L: int, M: int) -> Optional[BasisOrdering]:
        """The first candidate ordering under which the square
        (L* + shift)^2, shift = L / M in lowest terms (M > 0), in the
        u*-basis is irreducible tridiagonal, or None if no candidate works;
        read in O(1) from the roots of the closed form's factors
        (`lstar_shift_square_closed_form`).

        Join i and j when entry (i, j) or (j, i) is nonzero; a witness makes
        the joins one path, each nonzero both ways (see `scan`).
        - d = 0: the single ordering.
        - Some b*_i (i < d) is zero: every entry (j, k) with k <= i < j has
          the factor b*_i, so no pair across that cut is nonzero both ways
          and no path crosses it.  A zero c*_i (i > 0) cuts at j < i <= k
          alike.
        - Otherwise every entry two off the diagonal is nonzero both ways,
          so the evens 0-2-4-... and the odds 1-3-5-... form two chains with
          d - 1 joins.  The pair (i, i+1) is nonzero both ways exactly when
          m_i = 2 shift + a*_i + a*_{i+1} is nonzero, that is, when the
          shift is not m_i's root.  A path has d joins, so exactly one m_i
          is nonzero, and it must join two chain ends.  m_{d-1} alone joins
          the top ends: evens up, then odds down, which is sigma.  That is
          the shift at which m_0..m_{d-2} all vanish (`sigma_shift`; at
          d = 1 there is none to vanish, so any shift) when it is not
          m_{d-1}'s root.  m_0 alone joins the bottom ends, which is the
          mirror: the shift at which m_1..m_{d-1} all vanish
          (`mirror_shift`) when it is not m_0's root.  At d = 1 the two
          coincide and sigma is returned.  The only other such pair is
          (1, 2) at d = 3; its path 0-2-1-3 is no candidate, so this
          returns None there and the `exhaustive` oracle raises."""
        d = self.d
        if d == 0:
            return self.sigma
        if self.cut:
            return None
        shift = (L, M)
        if (d == 1 or shift == self.sigma_shift) and shift != self.roots[-1]:
            return self.sigma
        if shift == self.mirror_shift and shift != self.roots[0]:
            return self.mirror
        return None

    def _diagonal_conditions(self, L: int, M: int) -> tuple[bool, bool]:
        """The diagonal test and the distinctness of its entries for any
        theta*, in O(d): with theta*_i = T_i / E, (theta*_i + shift)^2 is
        x_i^2 / (E M)^2 with x_i = T_i M + L E."""
        E = self.theta_star_den
        LE = L * E
        x_sq = [(t * M + LE) ** 2 for t in self.theta_star]
        return (all(x == ((i * M + L) * E) ** 2 for i, x in enumerate(x_sq)),
                len(set(x_sq)) == self.d + 1)

    def verify(self, lam: Fraction, exhaustive: bool) -> LeonardPairReport:
        """`verify_leonard_pair_square` at the shift `lam`, a Fraction, in
        O(1) when theta* is the index and O(d) otherwise (without the
        `exhaustive` oracle).  With theta*_i = i the diagonal test holds,
        and (i + lam)^2 == (j + lam)^2 for i < j exactly when
        lam = -(i + j)/2, so the entries are distinct unless 2 lam is an
        integer in [-(2d - 1), -1]; with lam = L / M in lowest terms, 2 lam
        is an integer iff M <= 2."""
        d = self.d
        L, M = lam.as_integer_ratio()
        if self.theta_star_is_index:
            diagonal, distinct = True, not (M <= 2 and 1 <= -2 * L // M <= 2 * d - 1)
        else:
            diagonal, distinct = self._diagonal_conditions(L, M)
        witness = self.witness(L, M)
        found = witness is not None
        verdict = self.theta_simple and self.u_irreducible and diagonal and distinct and found
        trace = [
            ("u*-basis: matrix of L diagonal with distinct entries", self.theta_simple),
            ("u-basis: matrix of L irreducible tridiagonal", self.u_irreducible),
            ("u-basis: matrix of (L*+shift)^2 diagonal", diagonal),
            ("u-basis: (L*+shift)^2 diagonal entries distinct", distinct),
            ("u*-basis: candidate reordering makes the square irreducible tridiagonal",
             found),
        ]

        if exhaustive:
            all_witnesses = scan_tridiagonal_orderings(lstar_shift_square(self.array(), lam))
            agree = witness.perm in all_witnesses if found else not all_witnesses
            # key name kept as is: readers of the CLI JSON match on it
            trace.append(("exhaustive permutation oracle agrees with candidates", agree))
            if not agree:
                raise InternalInconsistencyError(
                    f"candidate orderings say {found} but the ordering scan found "
                    f"{len(all_witnesses)} witnesses at d={d}, r={format_rational(self.r)}, "
                    f"s={format_rational(self.s)}, shift={format_rational(lam)}"
                )

        return LeonardPairReport(
            verdict=verdict, witness=witness, condition_trace=tuple(trace), shift=lam
        )


def verify_leonard_pair_square(
    p: ParameterArray, shift: Fraction | int, exhaustive: bool = False
) -> LeonardPairReport:
    """Decide whether (L, (L* + shift)^2) is a Leonard pair, in O(d).

    In the u-basis the matrix of L is irreducible tridiagonal, which is the
    nonzero b_0..b_{d-1} and c_1..c_d, and the matrix of the shifted square is
    diagonal with entries (theta*_i + shift)^2 = (i + shift)^2; both facts are
    verified rather than assumed, including distinctness of the diagonal.
    The ordered-basis condition on the u*-side is decided by the four
    candidate orderings, read off the roots of the closed form's middle
    factors (`_ArrayFacts.witness`).  Every test runs on integers.  When
    theta*_i = i the diagonal conditions are decided in O(1) from shift =
    L / M alone (`_ArrayFacts.verify`); for any other theta*, with
    theta*_i = T_i / E, (theta*_i + shift)^2 is x_i^2 / (E M)^2 with
    x_i = T_i M + L E, so the diagonal condition is x_i^2 == ((i M + L) E)^2
    and distinctness is that of the x_i^2.  With
    `exhaustive` the pattern of the dense product is also decided by path
    recognition, which finds every witness ordering at any d and shares no
    code with the closed form, as an independent oracle; any disagreement
    raises InternalInconsistencyError.  The facts that depend on the array
    alone are read in O(d) by `_ArrayFacts`, which a search run builds once
    for all its shifts.
    """
    return _ArrayFacts(p).verify(exact_rational("shift", shift), exhaustive)


def theorem_conditions(
    p: ParameterArray, shift: Fraction | int
) -> tuple[bool, bool, bool]:
    """(r != 0, r + s == 0, 2*shift == r - d), compared on integer pairs: r =
    R / D and s = S / D' are in lowest terms, so r + s == 0 iff (R, D) ==
    (-S, D'), and with shift = L / M (D, M > 0) 2 shift == r - d iff
    2 L D == M (R - d D)."""
    return _theorem_conditions(p.d, p.r, p.s)(exact_rational("shift", shift))


def _theorem_conditions(d: int, r: Fraction, s: Fraction):
    """`theorem_conditions` of (d, r, s) as a function of a Fraction shift,
    with r and s read once."""
    R, D = r.as_integer_ratio()
    S, D_s = s.as_integer_ratio()
    nonzero, opposite, target = R != 0, R == -S and D == D_s, R - d * D

    def flags(shift: Fraction) -> tuple[bool, bool, bool]:
        L, M = shift.as_integer_ratio()
        return (nonzero, opposite, 2 * L * D == M * target)

    return flags


def d2_condition(p: ParameterArray, shift: Fraction | int) -> bool:
    """d = 2 characterization: r != s and 2(shift+1) is one of
    (r-s)/(r+s+2), (s-r)/(r+s+4)."""
    if p.d != 2:
        raise ValueError(f"d=2 condition evaluated at d={p.d}")
    lam = exact_rational("shift", shift)
    if p.r == p.s:
        return False
    roots = {(p.r - p.s) / (p.r + p.s + 2), (p.s - p.r) / (p.r + p.s + 4)}
    return 2 * (lam + 1) in roots


def is_dual_almost_bipartite(p: ParameterArray, shift: Fraction | int) -> bool:
    """[L*]_{u*-basis} + shift I must be irreducible tridiagonal with zero
    diagonal except a nonzero last entry.  Read from the array in O(d): the
    matrix is tridiagonal with subdiagonal b*_0..b*_{d-1}, superdiagonal
    c*_1..c*_d and diagonal a*_i + shift."""
    lam = exact_rational("shift", shift)
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


def _grid_runs(grid: SearchGrid) -> list[tuple[int, Fraction, Fraction, list[Fraction]]]:
    """One (d, r, s, shifts) per distinct (d, r, s) of the grid, in
    (d, r, s) order, with the shifts in order.  Each list is sorted once as
    (value, multiplicity) pairs, and a per-point s = -r or canonical shift
    is a single option, so the nested product is already in order; a point
    repeats as often as its coordinates do, and a (d, r, s) without shifts
    gives no run."""

    def ordered(name, values):
        return None if values is None else sorted(
            Counter(exact_rational(name, v) for v in values).items())

    s_values = ordered("s", grid.s_values)
    shift_values = ordered("shift", grid.shift_values)
    runs = []
    for (d, nd), (r, nr) in product(sorted(Counter(grid.d_values).items()),
                                    ordered("r", grid.r_values)):
        for s, ns in s_values if s_values is not None else ((-r, 1),):
            shifts = shift_values if shift_values is not None else (((r - d) / 2, 1),)
            run = [lam for lam, nl in shifts for _ in range(nd * nr * ns * nl)]
            if run:
                runs.append((d, r, s, run))
    return runs


def _evaluate_run(
    d: int, r: Fraction, s: Fraction, shifts: list[Fraction], exhaustive: bool
) -> list[SearchRecord]:
    """The records of one run: every shift of a (d, r, s), decided on facts
    read once from the array's integer pairs (`_dual_hahn_pairs`,
    `_ArrayFacts.from_pairs`), which are checked for every invariant of
    `parameter_array`.  The Fraction array is built only for the
    `exhaustive` oracle, once per run; r and s are read once for the
    theorem flags."""
    facts = _ArrayFacts.from_pairs(d, r, s, _dual_hahn_pairs(d, r, s))
    flags = _theorem_conditions(d, r, s)
    return [
        SearchRecord(
            d=d, r=r, s=s, shift=lam,
            report=facts.verify(lam, exhaustive),
            theorem_flags=flags(lam),
        )
        for lam in shifts
    ]


def search_square_preserving(grid: SearchGrid) -> Iterator[SearchRecord]:
    """Evaluate every grid point, yielding records in deterministic
    (d, r, s, shift) order as they are decided.

    The grid is walked once into runs of equal (d, r, s) (`_grid_runs`);
    each run builds its parameter array once and decides all its shifts on
    it, and its records are yielded before the next run starts.  The domain
    of every run is checked before the first record is yielded.  Only the
    (L, (L*+shift)^2) branch of square preservation is examined; the
    (L^2, L*) branch is reported as unexamined downstream.
    """
    runs = _grid_runs(grid)
    for d, r, s, _ in runs:
        check_domain(d, r, s)
    for d, r, s, shifts in runs:
        yield from _evaluate_run(d, r, s, shifts, grid.exhaustive)
