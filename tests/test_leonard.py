from collections import Counter
from fractions import Fraction as F
from math import gcd
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_lab import leonard, racah
from leonard_lab.leonard import (
    BasisOrdering,
    InternalInconsistencyError,
    LeonardPairReport,
    SearchGrid,
    SearchRecord,
    candidate_orderings,
    canonical_shift,
    column_sums,
    d2_condition,
    is_dual_almost_bipartite,
    lstar_shift_square,
    lstar_shift_square_closed_form,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from leonard_lab.matrices import _ZERO, RationalMatrix
from leonard_lab.params import (
    ParameterDomainError,
    ParameterInvariantError,
    _diagonal_pairs,
    build_params,
    check_domain,
)
from leonard_lab.representations import (
    matrix_L_u_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
)
from leonard_lab.scan import scan_tridiagonal_orderings
from test_params import (
    GRID_RS,
    complete_fractions,
    fractions_in,
    multi_pass_check_invariants,
    nonzero,
)


def is_irreducible_tridiagonal(m):
    """The dense test: zero outside the three central diagonals, nonzero on
    both the sub- and superdiagonal."""
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


def diagonal(m):
    """The diagonal entries of a square matrix."""
    return [m.at(i, i) for i in range(m.rows)]


def test_irreducible_tridiagonal_predicate():
    assert not is_irreducible_tridiagonal(RationalMatrix.diagonal([1, 2, 3]))
    assert is_irreducible_tridiagonal(
        matrix_L_u_basis(build_params(2, F(1, 2), F(-1, 2)))
    )
    assert is_irreducible_tridiagonal(RationalMatrix.from_rows([[5]]))
    assert not is_irreducible_tridiagonal(
        RationalMatrix.from_rows([[1, 1, 1], [1, 1, 1], [0, 1, 1]])
    )
    with pytest.raises(ValueError):
        is_irreducible_tridiagonal(RationalMatrix.from_rows([[1, 2]]))


def test_basis_ordering_validation():
    BasisOrdering((2, 0, 1))
    with pytest.raises(ValueError):
        BasisOrdering((0, 0, 1))


def test_shift_square_entry_example():
    p = build_params(2, F(1, 2), F(-1, 2))
    m = lstar_shift_square(p, F(-3, 4))
    assert m.at(0, 2) == p.c_star[1] * p.c_star[2] == F(5, 8)


def test_shift_square_d0():
    p = build_params(0, F(1, 4), F(1, 4))
    for lam in (F(0), F(1, 2), F(-7, 3)):
        m = lstar_shift_square(p, lam)
        assert m == RationalMatrix.from_rows([[lam**2]])
        assert m == lstar_shift_square_closed_form(p, lam)


def test_shift_square_matches_closed_form_and_column_sums():
    shifts = [F(0), F(1, 2), F(-1, 2)]
    for d, r, s in product(range(0, 5), GRID_RS, GRID_RS):
        p = build_params(d, r, s)
        for lam in shifts + [canonical_shift(p)]:
            square = lstar_shift_square(p, lam)
            assert square == lstar_shift_square_closed_form(p, lam), (d, r, s, lam)
            assert all(v == lam**2 for v in column_sums(square)), (d, r, s, lam)


def test_shift_square_near_diagonal_zero_pattern():
    # (i, i+1) zero iff (i+1, i) zero iff 2*lam + a*_i + a*_{i+1} == 0
    for d, r, s in product(range(1, 5), [F(1, 2), F(-1, 4)], [F(1, 2), F(-1, 2)]):
        p = build_params(d, r, s)
        for lam in (F(0), canonical_shift(p), F(-1)):
            square = lstar_shift_square(p, lam)
            for i in range(d):
                vanishes = 2 * lam + p.a_star[i] + p.a_star[i + 1] == 0
                assert (square.at(i, i + 1) == 0) == vanishes
                assert (square.at(i + 1, i) == 0) == vanishes


def test_candidate_orderings_frozen():
    assert [o.perm for o in candidate_orderings(4)] == [
        (0, 2, 4, 3, 1),
        (1, 3, 4, 2, 0),
        (4, 2, 0, 1, 3),
        (3, 1, 0, 2, 4),
    ]
    assert candidate_orderings(3)[0].perm == (0, 2, 3, 1)
    assert [o.perm for o in candidate_orderings(1)] == [
        (0, 1),
        (1, 0),
        (1, 0),
        (0, 1),
    ]
    with pytest.raises(ValueError):
        candidate_orderings(0)


def test_candidate_orderings_are_mutual_reversals():
    for d in range(1, 9):
        first, second, third, fourth = (o.perm for o in candidate_orderings(d))
        assert second == tuple(reversed(first))
        assert fourth == tuple(reversed(third))


def _candidate_closed_forms(d):
    """The four candidates as four closed forms, each with its own branch at
    half of d (the oracle for `candidate_orderings`, which derives them from
    sigma)."""
    half_floor = d // 2
    half_ceil = (d + 1) // 2
    return [
        tuple(2 * i if i <= half_floor else 2 * (d - i) + 1 for i in range(d + 1)),
        tuple(2 * i + 1 if i <= half_ceil - 1 else 2 * (d - i) for i in range(d + 1)),
        tuple(d - 2 * i if i <= half_floor else 2 * i - d - 1 for i in range(d + 1)),
        tuple(d - 2 * i - 1 if i <= half_ceil - 1 else 2 * i - d for i in range(d + 1)),
    ]


def test_candidate_orderings_equal_the_four_closed_forms():
    for d in range(1, 65):
        assert [o.perm for o in candidate_orderings(d)] == _candidate_closed_forms(d), d


def test_verify_theorem_instance_d3():
    p = build_params(3, F(1, 2), F(-1, 2))
    lam = F(-5, 4)
    assert lam == canonical_shift(p)
    # scalars behind the reordering characterization: only the last
    # consecutive a* sum survives the canonical shift
    assert 2 * lam + p.a_star[2] + p.a_star[3] == F(1, 2) * (3 + 1) / 2 != 0
    for i in range(2):
        assert 2 * lam + p.a_star[i] + p.a_star[i + 1] == 0
    report = verify_leonard_pair_square(p, lam, exhaustive=True)
    assert report.verdict
    assert report.witness == candidate_orderings(3)[0]
    assert report.first_failed() is None


def test_verify_converse_d3():
    p = build_params(3, F(1, 2), F(-1, 2))
    report = verify_leonard_pair_square(p, F(0), exhaustive=True)
    assert not report.verdict
    assert report.first_failed() is not None


def test_verify_d1_shift_minus_half_fails():
    for r, s in [(F(1, 4), F(1, 4)), (F(1, 2), F(-1, 2)), (F(2), F(1))]:
        p = build_params(1, r, s)
        assert build_params(1, r, s).a_star[0] + p.a_star[1] == 1
        assert not verify_leonard_pair_square(p, F(-1, 2)).verdict
        assert verify_leonard_pair_square(p, F(0)).verdict


def test_verify_d0_trivial_pair():
    p = build_params(0, F(1, 2), F(1, 4))
    report = verify_leonard_pair_square(p, F(3, 2))
    assert report.verdict
    assert report.witness == BasisOrdering((0,))


def test_verify_rejects_non_simple_square_spectrum():
    # lam = -(i+j)/2 collapses (i+lam)^2 and (j+lam)^2
    p = build_params(3, F(1, 2), F(-1, 2))
    report = verify_leonard_pair_square(p, F(-3, 2))
    assert not report.verdict
    conditions = dict(report.condition_trace)
    assert conditions["u-basis: (L*+shift)^2 diagonal entries distinct"] is False


def test_theorem_conditions_flags():
    p = build_params(2, F(1, 2), F(-1, 2))
    assert theorem_conditions(p, F(-3, 4)) == (True, True, True)
    assert theorem_conditions(p, F(0)) == (True, True, False)
    p2 = build_params(2, F(1, 2), F(-1, 4))
    assert theorem_conditions(p2, F(-3, 4)) == (True, False, True)


def _fraction_theorem_conditions(p, shift):
    """`theorem_conditions` as it was decided on Fractions."""
    lam = F(shift)
    return (p.r != 0, p.r + p.s == 0, 2 * lam == p.r - p.d)


def _carrying(d, r, s):
    """A built array that carries (d, r, s), all `theorem_conditions` reads;
    built when a test runs, not when this module is imported."""
    return replace(build_params(0, 0, 0), d=d, r=r, s=s)


_WIDE_RATIONALS = fractions_in(-1, 5, 10**9).filter(lambda x: x > -1)


@pytest.mark.parametrize(
    "d, r, s, lam, flags",
    [
        (3, F(0), F(0), F(-3, 2), (False, True, True)),
        (3, F(0), F(1, 2), F(-3, 2), (False, False, True)),
        (2, F(1, 2), F(-1, 2), -F(3, 4), (True, True, True)),
        (2, F(1, 2), F(1, 2), F(3, 4), (True, False, False)),
        (4, F(-1, 1000003), F(1, 1000003), (F(-1, 1000003) - 4) / 2, (True, True, True)),
        (4, F(1, 1000003), F(-1, 1000033), (F(1, 1000003) - 4) / 2, (True, False, True)),
        (4, F(1, 1000003), F(-1, 1000003), (F(1, 1000033) - 4) / 2, (True, True, False)),
        (7, F(5, 3), F(-5, 3), -F(8, 3), (True, True, True)),
        (7, F(5, 3), F(-5, 3), -8, (True, True, False)),
        (0, F(2), F(-2), 1, (True, True, True)),
    ],
)
def test_theorem_conditions_on_integer_pairs(d, r, s, lam, flags):
    # r = 0, r + s = 0 against s = r or a near denominator, 2 shift = r - d
    # against a near miss, negative and int shifts, denominators above 10^6.
    p = _carrying(d, r, s)
    assert theorem_conditions(p, lam) == _fraction_theorem_conditions(p, lam) == flags


@settings(deadline=None, max_examples=200)
@given(d=st.integers(0, 40), data=st.data())
def test_theorem_conditions_equal_the_fraction_formula(d, data):
    r = data.draw(st.one_of(st.just(F(0)), _OPEN_RATIONALS, _WIDE_RATIONALS))
    s = data.draw(st.one_of(st.just(-r), st.just(r), _OPEN_RATIONALS, _WIDE_RATIONALS))
    lam = data.draw(st.one_of(
        st.just((r - d) / 2),
        st.integers(-50, 50),
        fractions_in(-50, 50, 10**9),
    ))
    p = _carrying(d, r, s)
    assert theorem_conditions(p, lam) == _fraction_theorem_conditions(p, lam)


def test_d2_condition_both_roots():
    p = build_params(2, F(1, 2), F(-1, 2))
    # 2(lam+1) in {1/2, -1/4}  =>  lam in {-3/4, -9/8}
    assert d2_condition(p, F(-3, 4))
    assert d2_condition(p, F(-9, 8))
    assert not d2_condition(p, F(0))
    assert not d2_condition(p, F(-8, 7))
    equal = build_params(2, F(1, 2), F(1, 2))
    assert not d2_condition(equal, F(-3, 4))
    with pytest.raises(ValueError):
        d2_condition(build_params(3, F(1, 2), F(-1, 2)), F(0))


def test_d2_condition_agrees_with_verdict():
    shifts = [F(-3, 4), F(-9, 8), F(0), F(-1), F(1, 2), F(-8, 7)]
    for r, s in product([F(1, 2), F(-1, 4), F(3, 4)], repeat=2):
        p = build_params(2, r, s)
        for lam in shifts:
            assert d2_condition(p, lam) == verify_leonard_pair_square(
                p, lam, exhaustive=True
            ).verdict, (r, s, lam)


def test_d1_verdict_iff_shift_not_minus_half():
    for r, s in product([F(1, 2), F(-1, 4)], repeat=2):
        p = build_params(1, r, s)
        for lam in [F(-1, 2), F(0), F(-1), F(3, 7)]:
            assert verify_leonard_pair_square(p, lam, exhaustive=True).verdict == (
                2 * lam != -1
            )


def test_exhaustive_agrees_with_candidates_small_grid():
    for d in range(1, 5):
        for r in (F(1, 2), F(-1, 2)):
            for s in (-r, F(1, 4)):
                p = build_params(d, r, s)
                for lam in (canonical_shift(p), canonical_shift(p) + 1, F(0)):
                    report = verify_leonard_pair_square(p, lam, exhaustive=True)
                    conditions = dict(report.condition_trace)
                    assert conditions["exhaustive permutation oracle agrees with candidates"]


def test_exhaustive_witness_set_equals_candidate_set():
    for d in range(1, 6):
        p = build_params(d, F(1, 2), F(-1, 2))
        for lam in (canonical_shift(p), F(0)):
            square = lstar_shift_square(p, lam)
            exhaustive = set(scan_tridiagonal_orderings(square))
            candidates = {
                o.perm
                for o in candidate_orderings(d)
                if is_irreducible_tridiagonal(square.permuted(o.perm))
            }
            assert exhaustive == candidates, (d, lam)


def test_dual_almost_bipartite():
    p = build_params(2, F(1, 2), F(-1, 2))
    assert is_dual_almost_bipartite(p, F(-3, 4))
    shifted_diag = [a + F(-3, 4) for a in p.a_star]
    assert shifted_diag == [0, 0, F(3, 4)]
    assert p.a_star[2] + F(-3, 4) == F(1, 2) * (2 + 1) / 2
    assert not is_dual_almost_bipartite(p, F(0))
    for d in range(1, 7):
        for r in (F(1, 2), F(-1, 4), F(3, 4)):
            q = build_params(d, r, -r)
            assert is_dual_almost_bipartite(q, canonical_shift(q)), (d, r)


def _dense_dual_almost_bipartite(p, lam):
    """The dense test: [L*]_{u*-basis} + lam I built as a matrix, irreducible
    tridiagonal, with zero diagonal except a nonzero last entry."""
    m = matrix_Lstar_ustar_basis(p).plus_scalar(lam)
    diag = diagonal(m)
    return is_irreducible_tridiagonal(m) and all(v == 0 for v in diag[:-1]) and diag[-1] != 0


@settings(deadline=None, max_examples=200)
@given(d=st.integers(0, 12), data=st.data())
def test_dual_almost_bipartite_equals_dense_test(d, data):
    # Built arrays at shifts that zero some diagonal entries, then one interior
    # b* or c* zeroed, or one a*_i moved onto -lam or off it.
    r = data.draw(_OPEN_RATIONALS)
    s = data.draw(st.one_of(_OPEN_RATIONALS, st.just(-r)) if r < 1 else _OPEN_RATIONALS)
    p = build_params(d, r, s)
    lam = data.draw(st.one_of(
        st.just(canonical_shift(p)),
        st.sampled_from([-a for a in p.a_star]),
        _generic_shifts(d),
    ))
    change = data.draw(st.sampled_from(["none", "b_star", "c_star", "a_star", "a_star_off"]))
    if change in ("b_star", "c_star") and d > 0:
        i = data.draw(st.integers(0, d - 1) if change == "b_star" else st.integers(1, d))
        values = list(getattr(p, change))
        values[i] = F(0)
        p = replace(p, **{change: tuple(values)})
    elif change.startswith("a_star"):
        i = data.draw(st.integers(0, d))
        off = 0 if change == "a_star" else data.draw(
            fractions_in(-2, 2, 6).filter(bool))
        values = list(p.a_star)
        values[i] = -lam + off
        p = replace(p, a_star=tuple(values))
    assert is_dual_almost_bipartite(p, lam) == _dense_dual_almost_bipartite(p, lam)


def test_search_theorem_grid_all_hit():
    grid = SearchGrid(
        d_values=tuple(range(3, 7)), r_values=(F(1, 2), F(-1, 2))
    )
    records = list(search_square_preserving(grid))
    assert len(records) == 8
    hits = [rec for rec in records if rec.report.verdict]
    assert len(hits) == 8
    assert all(rec.theorem_predicted for rec in hits)


def test_search_r_equals_s_no_hits():
    grid = SearchGrid(
        d_values=(3,),
        r_values=(F(1, 2),),
        s_values=(F(1, 2),),
        shift_values=(F(0), F(-1), F(-5, 4), F(1, 2)),
    )
    assert not any(rec.report.verdict for rec in search_square_preserving(grid))


def test_search_finds_non_theorem_root_at_d2():
    grid = SearchGrid(
        d_values=(2,),
        r_values=(F(1, 2),),
        shift_values=(F(-9, 8),),
    )
    hits = [rec for rec in search_square_preserving(grid) if rec.report.verdict]
    assert len(hits) == 1
    assert not hits[0].theorem_predicted
    assert hits[0].theorem_flags == (True, True, False)


def test_search_is_deterministically_ordered():
    grid = SearchGrid(
        d_values=(2, 1), r_values=(F(1, 2), F(-1, 2)), shift_values=(F(0), F(-1))
    )
    records = list(search_square_preserving(grid))
    keys = [(rec.d, rec.r, rec.s, rec.shift) for rec in records]
    assert keys == sorted(keys)


def test_exhaustive_oracle_at_cap():
    p = build_params(8, F(1, 2), F(-1, 2))
    for lam in (canonical_shift(p), F(0)):
        report = verify_leonard_pair_square(p, lam, exhaustive=True)
        assert dict(report.condition_trace)[
            "exhaustive permutation oracle agrees with candidates"
        ]
    assert verify_leonard_pair_square(p, canonical_shift(p), exhaustive=True).verdict


def test_exhaustive_oracle_runs_at_every_d():
    for d in (9, 40):
        p = build_params(d, F(1, 2), F(-1, 2))
        for lam in (canonical_shift(p), F(0)):
            report = verify_leonard_pair_square(p, lam, exhaustive=True)
            assert dict(report.condition_trace)[
                "exhaustive permutation oracle agrees with candidates"
            ], (d, lam)
            assert report.verdict == (lam == canonical_shift(p)), (d, lam)


# -- the dense route that the banded decision replaced -------------------------


def _dense_witness(square, d):
    """First candidate ordering under which the dense `square`, permuted, is
    irreducible tridiagonal."""
    if d == 0:
        return BasisOrdering((0,))
    for ordering in candidate_orderings(d):
        if is_irreducible_tridiagonal(square.permuted(ordering.perm)):
            return ordering
    return None


def _dense_verify(p, lam, exhaustive):
    """(verdict, witness, condition trace) of `verify_leonard_pair_square` by
    dense matrices: L in the u-basis, the dense square of the diagonal
    [L*]_{u-basis} + lam I, and every candidate as a permuted dense square."""
    d = p.d
    lstar_u = matrix_Lstar_u_basis(p).plus_scalar(lam)
    square_u = lstar_u @ lstar_u
    diag = diagonal(square_u)
    square = lstar_shift_square(p, lam)
    witness = _dense_witness(square, d)
    trace = [
        ("u*-basis: matrix of L diagonal with distinct entries", len(set(p.theta)) == d + 1),
        ("u-basis: matrix of L irreducible tridiagonal",
         d == 0 or is_irreducible_tridiagonal(matrix_L_u_basis(p))),
        ("u-basis: matrix of (L*+shift)^2 diagonal",
         square_u == RationalMatrix.diagonal([(i + lam) ** 2 for i in range(d + 1)])),
        ("u-basis: (L*+shift)^2 diagonal entries distinct", len(set(diag)) == d + 1),
        ("u*-basis: candidate reordering makes the square irreducible tridiagonal",
         witness is not None),
    ]
    verdict = all(ok for _, ok in trace)
    if exhaustive:
        trace.append(("exhaustive permutation oracle agrees with candidates",
                      bool(scan_tridiagonal_orderings(square)) == (witness is not None)))
    return verdict, witness, tuple(trace)


def _with_zero(square, i, j):
    n = square.rows
    entries = list(square.entries)
    entries[i * n + j] = F(0)
    return RationalMatrix(n, n, tuple(entries))


_OPEN_RATIONALS = fractions_in(-1, 3, 24).filter(lambda x: x > -1)


@st.composite
def _search_points(draw):
    """(d, r, s, lam): s = -r and the canonical shift, where the verdict is
    true, and the d = 2 roots are drawn as often as generic points."""
    d = draw(st.one_of(st.just(2), st.integers(0, 16)))
    r = draw(_OPEN_RATIONALS)
    s = draw(st.one_of(_OPEN_RATIONALS, st.just(-r))) if r < 1 else draw(_OPEN_RATIONALS)
    kind = draw(st.sampled_from(["canonical", "root", "root", "generic"]))
    if kind == "canonical":
        lam = (r - d) / 2
    elif kind == "root":
        root = draw(st.sampled_from([(r - s) / (r + s + 2), (s - r) / (r + s + 4)]))
        lam = root / 2 - 1
    else:
        lam = draw(_generic_shifts(d))
    return d, r, s, lam


def _generic_shifts(d):
    return fractions_in(-d - 2, 2, 12)


def _critical_shifts(p):
    """The shifts at which a verdict can change, which drawn shifts almost
    never hit, sorted and without repeats: the root -(a*_i + a*_{i+1})/2 of
    each middle factor, every -(theta*_i + theta*_j)/2 (i < j) where two
    diagonal entries (theta*_i + lam)^2 meet, every -(theta*_i + i)/2 where
    (theta*_i + lam)^2 meets (i + lam)^2 (on the index these are the -i,
    0 and -d among them, just outside the collisions), and the canonical
    (r - d)/2."""
    d, a, t = p.d, p.a_star, p.theta_star
    shifts = [-(a[i] + a[i + 1]) / 2 for i in range(d)]
    shifts += [-(t[i] + t[j]) / 2 for i in range(d + 1) for j in range(i + 1, d + 1)]
    shifts += [-(t[i] + i) / 2 for i in range(d + 1)]
    shifts.append((p.r - p.d) / 2)
    return sorted(set(shifts))


def _some_critical_shifts(p):
    return st.lists(st.sampled_from(_critical_shifts(p)), min_size=1, max_size=3)


@st.composite
def _perturbed(draw, p):
    """p as it is, with a zero interior b* or c*, or with theta* moved off
    the index: some entries reflected to -2 lam0 - i about a drawn lam0,
    where (theta*_i + lam0)^2 still equals (i + lam0)^2, or moved to a drawn
    rational."""
    d = p.d
    kind = draw(st.sampled_from(["as is", "cut", "theta* off the index"]))
    if kind == "cut" and d > 0:
        field = draw(st.sampled_from(["b_star", "c_star"]))
        i = draw(st.integers(0, d - 1)) + (field == "c_star")
        values = list(getattr(p, field))
        values[i] = F(0)
        return replace(p, **{field: tuple(values)})
    if kind == "theta* off the index":
        lam0 = draw(_generic_shifts(d))
        reflect = draw(st.booleans())
        theta_star = list(p.theta_star)
        for i in draw(st.sets(st.integers(0, d), min_size=1)):
            theta_star[i] = -2 * lam0 - i if reflect else draw(_generic_shifts(d))
        return replace(p, theta_star=tuple(theta_star))
    return p


@settings(deadline=None, max_examples=120)
@given(point=_search_points(), exhaustive=st.booleans(), data=st.data())
def test_banded_decision_equals_dense_route(point, exhaustive, data):
    # Dual Hahn arrays, a zero b* or c*, or theta* off the index; at the
    # drawn shift and at one of the array's critical shifts.
    d, r, s, lam = point
    p = data.draw(_perturbed(build_params(d, r, s)))
    lam = data.draw(st.one_of(st.just(lam), st.sampled_from(_critical_shifts(p))))
    report = verify_leonard_pair_square(p, lam, exhaustive=exhaustive)
    assert (report.verdict, report.witness, report.condition_trace) == _dense_verify(
        p, lam, exhaustive
    )

    # The closed form is the dense product, and the dense square is zero
    # more than two off the diagonal.
    dense = lstar_shift_square(p, lam)
    closed = lstar_shift_square_closed_form(p, lam)
    assert closed == dense
    assert all(dense.at(i, j) == 0 for i in range(d + 1) for j in range(d + 1)
               if abs(i - j) > 2)

    # A witness square is nonzero off the diagonal only on its path, so
    # zeroing any one of those entries leaves no candidate.
    if report.witness is not None and d > 0:
        nonzero = [(i, j) for i in range(d + 1) for j in range(d + 1)
                   if i != j and closed.at(i, j) != 0]
        assert len(nonzero) == 2 * d
        i, j = data.draw(st.sampled_from(nonzero))
        assert _dense_witness(_with_zero(closed, i, j), d) is None


def test_search_yields_first_record_before_the_last_point_is_evaluated(monkeypatch):
    evaluated = []
    evaluate = leonard._evaluate_run

    def counting(d, r, s, shifts, exhaustive):
        evaluated.append((d, len(shifts)))
        return evaluate(d, r, s, shifts, exhaustive)

    monkeypatch.setattr(leonard, "_evaluate_run", counting)
    grid = SearchGrid(d_values=(1, 2, 3), r_values=(F(1, 2),), shift_values=(F(0), F(-1)))
    records = search_square_preserving(grid)
    first = next(records)
    assert (first.d, first.shift) == (1, F(-1))
    records.close()
    assert evaluated == [(1, 2)]

    evaluated.clear()
    records = search_square_preserving(grid)
    assert [rec.d for rec in records] == [1, 1, 2, 2, 3, 3]
    assert evaluated == [(1, 2), (2, 2), (3, 2)]


@pytest.mark.parametrize(
    "grid, runs",
    [
        (SearchGrid(d_values=(3, 1, 3), r_values=(F(1, 2), F(-1, 3))), 4),
        (SearchGrid(d_values=(3, 1, 3), r_values=(F(1, 2), F(-1, 3), F(1, 2)),
                    s_values=(F(0), F(1, 2)), shift_values=(F(0), F(-1), F(0))), 8),
    ],
    ids=["canonical", "lists"],
)
def test_search_builds_each_array_once(monkeypatch, grid, runs):
    # One set of integer pairs per run; no Fraction array without `exhaustive`.
    paired, built = [], []
    pairs = leonard._dual_hahn_pairs

    def counting(d, r, s):
        paired.append((d, r, s))
        return pairs(d, r, s)

    monkeypatch.setattr(leonard, "_dual_hahn_pairs", counting)
    monkeypatch.setattr(leonard, "build_params", lambda *args: built.append(args))
    records = list(search_square_preserving(grid))
    assert len(records) == len(_sorted_grid_points(grid))
    assert paired == sorted(set(paired))
    assert len(paired) == runs
    assert built == []


@pytest.mark.parametrize(
    "grid",
    [
        SearchGrid(d_values=(2, 3), r_values=(F(1, 2),), s_values=()),
        SearchGrid(d_values=(2, 3), r_values=(F(1, 2),), shift_values=()),
        SearchGrid(d_values=(2,), r_values=(F(1, 2),), s_values=(F(0),), shift_values=()),
    ],
    ids=["no-s", "no-shift", "s-list-no-shift"],
)
def test_search_with_an_empty_list_builds_nothing(monkeypatch, grid):
    built = []
    monkeypatch.setattr(leonard, "build_params", lambda *args: built.append(args))
    assert leonard._grid_runs(grid) == []
    assert list(search_square_preserving(grid)) == []
    assert built == []


def _per_run_check_domain(runs):
    """`check_domain` of every run in turn, the oracle of the search's own
    domain check."""
    for d, r, s, _ in runs:
        check_domain(d, r, s)


def _domain_message(check, runs):
    try:
        check(runs)
    except ParameterDomainError as exc:
        return str(exc)
    return None


_IN_DOMAIN = st.builds(F, st.integers(-5, 12), st.integers(1, 6)).filter(lambda x: x > -1)
_OUT_OF_DOMAIN = st.builds(F, st.integers(-12, -6), st.integers(1, 6))


def _with_value_at(data, values, bad):
    """values with `bad` put at the first, a middle or the last position."""
    at = data.draw(st.sampled_from((0, len(values) // 2, len(values))))
    return values[:at] + [bad] + values[at:]


@settings(deadline=None, max_examples=200)
@given(bad_r=st.booleans(), bad_s=st.booleans(), data=st.data())
def test_run_domains_raise_like_the_per_run_oracle(bad_r, bad_s, data):
    # Lists in drawn order, with repeated values, so the first failing run
    # may come first, in the middle or last, and may follow runs whose d, r
    # or s alone were already seen to pass.  The first record is asked for
    # once every run's domain has been checked.
    d_values = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    r_values = data.draw(st.lists(_IN_DOMAIN, min_size=1, max_size=4))
    s_values = data.draw(st.lists(_IN_DOMAIN, min_size=1, max_size=4))
    if bad_r:
        r_values = _with_value_at(data, r_values, data.draw(_OUT_OF_DOMAIN))
    if bad_s:
        s_values = _with_value_at(data, s_values, data.draw(_OUT_OF_DOMAIN))
    if data.draw(st.booleans()):
        d_values = _with_value_at(data, d_values, -1)
    grid = SearchGrid(d_values=tuple(d_values), r_values=tuple(r_values),
                      s_values=tuple(s_values), shift_values=(F(0),))
    expected = _domain_message(_per_run_check_domain, leonard._grid_runs(grid))
    assert _domain_message(lambda _: next(search_square_preserving(grid)), None) == expected
    if not (bad_r or bad_s or -1 in d_values):
        assert expected is None


@settings(deadline=None, max_examples=100)
@given(s_list=st.booleans(), data=st.data())
def test_search_rejects_the_first_run_out_of_domain(s_list, data):
    # Through the grid: r <= -1, or s <= -1 (with s = -r, any r >= 1), at
    # the first, a middle or the last position of its list.
    r_in_domain = _IN_DOMAIN if s_list else _IN_DOMAIN.filter(lambda r: r < 1)
    r_values = data.draw(st.lists(r_in_domain, min_size=1, max_size=4))
    s_values = data.draw(st.lists(_IN_DOMAIN, min_size=1, max_size=4)) if s_list else None
    bad = data.draw(st.sampled_from(("r", "s", "none")))
    if bad == "r":
        r_values = _with_value_at(data, r_values, data.draw(_OUT_OF_DOMAIN))
    elif bad == "s" and s_list:
        s_values = _with_value_at(data, s_values, data.draw(_OUT_OF_DOMAIN))
    elif bad == "s":
        r_values = _with_value_at(data, r_values, -data.draw(_OUT_OF_DOMAIN))
    grid = SearchGrid(
        d_values=tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))),
        r_values=tuple(r_values),
        s_values=None if s_values is None else tuple(s_values),
        shift_values=(F(0),),
    )
    expected = _domain_message(_per_run_check_domain, leonard._grid_runs(grid))
    assert (expected is None) == (bad == "none")
    assert _domain_message(lambda runs: list(search_square_preserving(grid)), None) == expected


def _per_point_records(grid):
    """The search one point at a time: every point rebuilds its array."""
    records = []
    for d, r, s, lam in _sorted_grid_points(grid):
        report = verify_leonard_pair_square(build_params(d, r, s), lam, grid.exhaustive)
        flags = (r != 0, r + s == 0, 2 * lam == r - d)
        records.append(SearchRecord(d, r, s, lam, report, flags))
    return records


_COMMON_R = st.sampled_from([F(-1, 2), F(1, 3), F(1, 2), F(3, 4)])


@settings(deadline=None, max_examples=100)
@given(s_list=st.booleans(), shift_list=st.booleans(), exhaustive=st.booleans(),
       data=st.data())
def test_search_records_equal_the_per_point_oracle(s_list, shift_list, exhaustive, data):
    # Small value sets make repeated values, and so repeated points, common;
    # s = -r needs r < 1 to stay in the domain.
    rationals = st.one_of(_COMMON_R, _OPEN_RATIONALS)
    d_values = data.draw(st.lists(st.integers(0, 8), min_size=1, max_size=4))
    r_values = data.draw(st.lists(rationals if s_list else rationals.filter(lambda r: r < 1),
                                  min_size=1, max_size=3))
    s_values = data.draw(st.lists(rationals, min_size=1, max_size=3)) if s_list else None
    canonical = sorted({(r - d) / 2 for d in d_values for r in r_values})
    shift_values = data.draw(st.lists(
        st.one_of(st.sampled_from(canonical),
                  fractions_in(-6, 2, 8)),
        min_size=1, max_size=4)) if shift_list else None
    grid = SearchGrid(
        d_values=tuple(d_values),
        r_values=tuple(r_values),
        s_values=None if s_values is None else tuple(s_values),
        shift_values=None if shift_values is None else tuple(shift_values),
        exhaustive=exhaustive,
    )
    assert list(search_square_preserving(grid)) == _per_point_records(grid)


# -- the Fraction verdict that the integer verdict replaced --------------------


def _fraction_verify(p, shift, exhaustive=False):
    """`verify_leonard_pair_square` as it was decided on Fractions: the
    candidates tried on the dense closed form, the diagonal as squares
    (theta*_i + lam)^2, and distinctness as sets of Fractions."""
    lam = F(shift)
    d = p.d
    trace = []
    theta_simple = len(set(p.theta)) == d + 1
    trace.append(("u*-basis: matrix of L diagonal with distinct entries", theta_simple))
    L_u_ok = all(v != 0 for v in p.b[:d]) and all(v != 0 for v in p.c[1:])
    trace.append(("u-basis: matrix of L irreducible tridiagonal", L_u_ok))
    diag_vals = tuple((t + lam) ** 2 for t in p.theta_star)
    diag_ok = diag_vals == tuple((i + lam) ** 2 for i in range(d + 1))
    trace.append(("u-basis: matrix of (L*+shift)^2 diagonal", diag_ok))
    simple_ok = len(set(diag_vals)) == d + 1
    trace.append(("u-basis: (L*+shift)^2 diagonal entries distinct", simple_ok))
    witness = _dense_witness(lstar_shift_square_closed_form(p, lam), d)
    found = witness is not None
    trace.append(
        ("u*-basis: candidate reordering makes the square irreducible tridiagonal", found)
    )
    if exhaustive:
        all_witnesses = scan_tridiagonal_orderings(lstar_shift_square(p, lam))
        agree = witness.perm in all_witnesses if found else not all_witnesses
        trace.append(("exhaustive permutation oracle agrees with candidates", agree))
    verdict = theta_simple and L_u_ok and diag_ok and simple_ok and found
    return LeonardPairReport(
        verdict=verdict, witness=witness, condition_trace=tuple(trace), shift=lam
    )


def _assert_matches_fraction_verdict(p, lam, exhaustive=False):
    report = verify_leonard_pair_square(p, lam, exhaustive=exhaustive)
    assert report == _fraction_verify(p, lam, exhaustive), (p.d, p.r, p.s, lam)
    return report


@settings(deadline=None, max_examples=150)
@given(point=_search_points(), exhaustive=st.booleans(), data=st.data())
def test_integer_verdict_equals_fraction_verdict(point, exhaustive, data):
    d, r, s, lam = point
    p = build_params(d, r, s)
    for shift in [lam, *data.draw(_some_critical_shifts(p))]:
        _assert_matches_fraction_verdict(p, shift, exhaustive)


_BARRED_R = fractions_in(-1, 1, 30).filter(lambda x: -1 < x < 1 and x != 0)


@settings(deadline=None, max_examples=80)
@given(d=st.integers(0, 12), r=_BARRED_R, exhaustive=st.booleans(), data=st.data())
def test_integer_verdict_on_barred_arrays(d, r, exhaustive, data):
    # The barred theta*_i = (i + (r - d)/2)^2 are not integers, so theta* and
    # a* have a common denominator E > 1.
    p = racah.build_racah_params(d, r)
    for lam in [data.draw(_generic_shifts(d)), *data.draw(_some_critical_shifts(p))]:
        _assert_matches_fraction_verdict(p, lam, exhaustive)


def _fraction_closed_form(p, shift):
    """The five cases of `lstar_shift_square_closed_form` on Fraction
    values, one entry at a time: the library's former route, kept as the
    oracle of its integer-pair form."""
    lam = F(shift)
    d = p.d
    n = d + 1
    a, b, c = p.a_star, p.b_star, p.c_star
    entries = [F(0)] * (n * n)
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


@st.composite
def _closed_form_arrays(draw):
    """A barred array, or a dual Hahn array on s = -r or off it with s over
    a denominator other than r's; d <= 16, with d = 0, 1 and 2 drawn often."""
    d = draw(st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 16)))
    kind = draw(st.sampled_from(["barred", "s = -r", "off the line"]))
    if kind == "barred":
        return racah.build_racah_params(d, draw(_BARRED_R))
    if kind == "s = -r":
        r = draw(_OPEN_RATIONALS.filter(lambda x: x < 1))
        return build_params(d, r, -r)
    r = draw(_OPEN_RATIONALS)
    return build_params(d, r, draw(_OPEN_RATIONALS.filter(
        lambda x: x.denominator != r.denominator)))


@settings(deadline=None, max_examples=120)
@given(p=_closed_form_arrays(), data=st.data())
def test_integer_closed_form_equals_the_fraction_oracle_and_the_dense_square(p, data):
    # At a drawn shift, the canonical shift and the root of each middle
    # factor m_i = 2 lam + a*_i + a*_{i+1}, where both entries beside the
    # diagonal at i vanish; every zero is the shared one.
    d, a = p.d, p.a_star
    roots = [(i, -(a[i] + a[i + 1]) / 2) for i in range(d)]
    for i, lam in [(None, data.draw(_generic_shifts(d))), (None, canonical_shift(p)), *roots]:
        closed = lstar_shift_square_closed_form(p, lam)
        assert closed == _fraction_closed_form(p, lam) == lstar_shift_square(p, lam), lam
        assert all(e is _ZERO for e in closed.entries if e == 0), lam
        assert all(type(e) is F for e in closed.entries)
        if i is not None:
            assert closed.at(i, i + 1) is closed.at(i + 1, i) is _ZERO


@settings(deadline=None, max_examples=80)
@given(point=_search_points(), data=st.data())
def test_integer_diagonal_condition_with_fractional_theta_star(point, data):
    # theta*_i = -2 lam - i gives (theta*_i + lam)^2 == (i + lam)^2 with a
    # denominator E > 1 whenever 2 lam is not an integer; reflecting only
    # some of the entries collapses some diagonal entries but not all.
    d, r, s, lam = point
    p = build_params(d, r, s)
    reflected = data.draw(st.sets(st.integers(0, d)))
    theta_star = tuple(
        -2 * lam - i if i in reflected else F(i) for i in range(d + 1)
    )
    q = replace(p, theta_star=theta_star)
    report = _assert_matches_fraction_verdict(q, lam)
    assert dict(report.condition_trace)["u-basis: matrix of (L*+shift)^2 diagonal"]
    for shift in data.draw(_some_critical_shifts(q)):
        _assert_matches_fraction_verdict(q, shift)


def test_integer_verdict_at_the_small_d_points():
    for r, s in product([F(1, 2), F(-1, 4), F(2), F(3, 7)], [F(1, 2), F(-1, 2), F(1, 3)]):
        p1 = build_params(1, r, s)
        for lam in (F(-1, 2), F(0), F(3, 7)):
            report = _assert_matches_fraction_verdict(p1, lam, exhaustive=True)
            assert report.verdict == (lam != F(-1, 2))
        p2 = build_params(2, r, s)
        if r != s:
            for root in ((r - s) / (r + s + 2), (s - r) / (r + s + 4)):
                report = _assert_matches_fraction_verdict(p2, root / 2 - 1, True)
                assert report.verdict == d2_condition(p2, root / 2 - 1)


def test_integer_verdict_at_collapsing_shifts():
    for d in range(1, 9):
        for r, s in ((F(1, 2), F(-1, 2)), (F(-2, 5), F(3, 4))):
            p = build_params(d, r, s)
            for i, j in product(range(d + 1), repeat=2):
                if i < j:
                    report = _assert_matches_fraction_verdict(p, F(-(i + j), 2), True)
                    assert not dict(report.condition_trace)[
                        "u-basis: (L*+shift)^2 diagonal entries distinct"
                    ]
                    assert not report.verdict


@settings(deadline=None, max_examples=150)
@given(point=_search_points(), data=st.data())
def test_integer_verdict_on_perturbed_arrays(point, data):
    # The verdict reads any ParameterArray as it stands: an interior b, c, b*
    # or c* set to zero, a repeated theta, or distinct thetas with equal
    # numerators change both sides alike.
    d, r, s, lam = point
    p = build_params(d, r, s)
    if d == 0:
        return
    field = data.draw(st.sampled_from(["b", "c", "b_star", "c_star", "theta", "theta_num"]))
    if field == "theta":
        i, j = data.draw(st.lists(st.integers(0, d), min_size=2, max_size=2, unique=True))
        theta = list(p.theta)
        theta[i] = theta[j]
        q = replace(p, theta=tuple(theta))
    elif field == "theta_num":
        q = replace(p, theta=tuple(F(1, k + 1) for k in range(d + 1)))
    else:
        i = data.draw(st.integers(0, d - 1) if field in ("b", "b_star") else st.integers(1, d))
        values = list(getattr(p, field))
        values[i] = F(0)
        q = replace(p, **{field: tuple(values)})
    for shift in [lam, *data.draw(_some_critical_shifts(q))]:
        _assert_matches_fraction_verdict(q, shift)


# -- the per-point verdict that a run's shared array facts replaced -------------


def _per_point_ordering_witness(p, shift):
    """The verdict's witness as each point decided it, a* over its
    denominator and the candidates built per call."""
    d = p.d
    if d == 0:
        return BasisOrdering((0,))
    if not (all(p.b_star[:d]) and all(p.c_star[1:])):
        return None
    L, M = F(shift).as_integer_ratio()
    A, E = leonard._over_common_denominator(p.a_star)
    twice = 2 * L * E
    nonzero = [i for i in range(d) if twice + M * (A[i] + A[i + 1])]
    if nonzero == [d - 1]:
        return candidate_orderings(d)[0]
    if nonzero == [0]:
        return candidate_orderings(d)[2]
    return None


def _per_point_verify(p, shift, exhaustive=False):
    """`verify_leonard_pair_square` as each point decided it, every fact of
    the array read again for every shift: the O(d) scan of the middle
    factors and the x_i^2 of the diagonal test, at every shift and for any
    theta*, which the roots read once per array and the O(1) diagonal rule
    of an index theta* replaced."""
    lam = F(shift)
    d = p.d
    theta_simple = len({v.as_integer_ratio() for v in p.theta}) == d + 1
    L, M = lam.as_integer_ratio()
    T, E = leonard._over_common_denominator(p.theta_star)
    LE = L * E
    x_sq = [(t * M + LE) ** 2 for t in T]
    witness = _per_point_ordering_witness(p, lam)
    found = witness is not None
    trace = [
        ("u*-basis: matrix of L diagonal with distinct entries", theta_simple),
        ("u-basis: matrix of L irreducible tridiagonal", all(p.b[:d]) and all(p.c[1:])),
        ("u-basis: matrix of (L*+shift)^2 diagonal",
         all(x == ((i * M + L) * E) ** 2 for i, x in enumerate(x_sq))),
        ("u-basis: (L*+shift)^2 diagonal entries distinct", len(set(x_sq)) == d + 1),
        ("u*-basis: candidate reordering makes the square irreducible tridiagonal", found),
    ]
    verdict = all(ok for _, ok in trace)
    if exhaustive:
        all_witnesses = scan_tridiagonal_orderings(lstar_shift_square(p, lam))
        agree = witness.perm in all_witnesses if found else not all_witnesses
        trace.append(("exhaustive permutation oracle agrees with candidates", agree))
        if not agree:
            raise InternalInconsistencyError((d, p.r, p.s, lam))
    return LeonardPairReport(
        verdict=verdict, witness=witness, condition_trace=tuple(trace), shift=lam
    )


@settings(deadline=None, max_examples=150)
@given(d=st.one_of(st.integers(0, 3), st.integers(0, 12)),
       kind=st.sampled_from(["dual Hahn", "barred", "perturbed"]), data=st.data())
def test_a_run_decides_each_shift_like_the_per_point_body(d, kind, data):
    # Every critical shift of one array, and a few drawn ones: dual Hahn
    # arrays through `_evaluate_run`, barred arrays (theta*_i != i) and
    # perturbed ones (a zero b* or c*, theta* off the index) on one
    # `_ArrayFacts`.
    if kind == "barred":
        p = racah.build_racah_params(d, data.draw(_BARRED_R))
    else:
        r = data.draw(_OPEN_RATIONALS)
        s = data.draw(st.one_of(_OPEN_RATIONALS, st.just(-r)) if r < 1 else _OPEN_RATIONALS)
        p = build_params(d, r, s)
        if kind == "perturbed":
            p = data.draw(_perturbed(p))
    shifts = _critical_shifts(p) + data.draw(st.lists(_generic_shifts(d), max_size=4))
    exhaustive = d <= 6 and data.draw(st.booleans())
    if kind == "dual Hahn":
        records = leonard._evaluate_run(d, p.r, p.s, shifts, exhaustive)
        reports = [rec.report for rec in records]
        assert [rec.theorem_flags for rec in records] == [
            _fraction_theorem_conditions(p, lam) for lam in shifts]
    else:
        facts = leonard._ArrayFacts.of_array(p)
        reports = [facts.verify(lam, exhaustive) for lam in shifts]
    assert reports == [_per_point_verify(p, lam, exhaustive) for lam in shifts]
    assert [verify_leonard_pair_square(p, lam, exhaustive) for lam in shifts] == reports
    assert [verify_leonard_pair_square(p, lam).witness for lam in shifts] == [
        _per_point_ordering_witness(p, lam) for lam in shifts]


@pytest.mark.parametrize("exhaustive", [False, True])
def test_a_run_reads_its_array_facts_once(monkeypatch, exhaustive):
    # Six shifts of one (d, r, s): one set of integer pairs, no Fraction
    # array, not even for the exhaustive oracle, and no Fraction list put
    # over a common denominator.
    calls = Counter()

    def counting(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    monkeypatch.setattr(leonard, "_dual_hahn_pairs", counting("pairs", leonard._dual_hahn_pairs))
    monkeypatch.setattr(leonard, "build_params", counting("build", leonard.build_params))
    monkeypatch.setattr(leonard, "_over_common_denominator",
                        counting("denominator", leonard._over_common_denominator))
    shifts = (F(0), F(-1), F(-5, 4), F(1, 2), F(-3, 4), F(2, 3))
    grid = SearchGrid(d_values=(3,), r_values=(F(1, 2),), s_values=(F(-1, 2),),
                      shift_values=shifts, exhaustive=exhaustive)
    records = list(search_square_preserving(grid))
    assert [rec.shift for rec in records] == sorted(shifts)
    assert sum(rec.report.verdict for rec in records) == 1
    assert calls == Counter(pairs=1, build=0, denominator=0)


class _IndexedOnly:
    """A sequence that can be indexed at one place but not iterated or
    sliced: a shift that loops over it raises."""

    def __init__(self, items):
        self._items = items

    def __getitem__(self, i):
        if isinstance(i, slice):
            raise AssertionError("sliced at a shift")
        return self._items[i]

    def __iter__(self):
        raise AssertionError("iterated at a shift")


@settings(deadline=None, max_examples=60)
@given(d=st.integers(0, 12), r=_OPEN_RATIONALS, opposite=st.booleans(), data=st.data())
def test_a_dual_hahn_shift_runs_no_per_index_loop(d, r, opposite, data):
    # theta*_i = i: the diagonal conditions and the ordering are decided at
    # every shift, the critical ones too, without a loop over theta* or the
    # roots of the middle factors.
    s = -r if opposite and r < 1 else data.draw(_OPEN_RATIONALS)
    p = build_params(d, r, s)
    facts = leonard._ArrayFacts.from_pairs(d, r, s, leonard._dual_hahn_pairs(d, r, s))
    facts.theta_star = _IndexedOnly(facts.theta_star)
    facts.roots = _IndexedOnly(facts.roots)
    shifts = _critical_shifts(p) + data.draw(st.lists(_generic_shifts(d), max_size=4))
    assert [facts.verify(lam, False) for lam in shifts] == [
        _per_point_verify(p, lam) for lam in shifts]


def test_sigma_is_built_once_per_d(monkeypatch):
    # Four runs at each of d = 1, 2 build sigma once per d, and every
    # witness is the very sigma or mirror that `candidate_orderings` lists
    # first and third.  At d = 2 the two roots of `d2_condition` give one
    # witness each.
    built = []
    sigma = leonard._sigma

    def counting(d):
        built.append(d)
        return sigma(d)

    monkeypatch.setattr(leonard, "_sigma", counting)
    leonard._candidates.cache_clear()
    r_values, s_values = (F(1, 2), F(-1, 3)), (F(1, 3), F(-1, 4))
    roots = {root / 2 - 1 for r, s in product(r_values, s_values)
             for root in ((r - s) / (r + s + 2), (s - r) / (r + s + 4))}
    grid = SearchGrid(d_values=(1, 2, 1), r_values=r_values, s_values=s_values,
                      shift_values=tuple(sorted(roots)) + (F(0),))
    witnesses = Counter()
    try:
        for rec in search_square_preserving(grid):
            if rec.report.witness is not None:
                sigma_d, _, mirror_d, _ = candidate_orderings(rec.d)
                assert rec.report.witness is sigma_d or rec.report.witness is mirror_d
                witnesses[rec.d, rec.report.witness is sigma_d] += 1
    finally:
        leonard._candidates.cache_clear()
    assert built == [1, 2]
    assert set(witnesses) == {(1, True), (2, True), (2, False)}


# -- the integer-pair path -----------------------------------------------------


def _fraction_entries(d, r, s):
    """theta, b, c, b* and c* of the dual Hahn array by the Fraction
    formulas `build_params` used before the integer-pair kernel, kept as the
    oracle."""
    D = r.denominator * s.denominator
    R = r.numerator * s.denominator
    S = s.numerator * r.denominator
    theta = tuple(F((d - i) * ((d - i + 1) * D + R + S), D) for i in range(d + 1))
    b = tuple(F((d - i) * ((d - i) * D + S), D) for i in range(d)) + (F(0),)
    c = (F(0),) + tuple(F(i * (i * D + R), D) for i in range(1, d + 1))
    b_star = []
    for i in range(d):
        X = 2 * (d - i) * D + R + S
        b_star.append(F((d - i) * ((i - d) * D - S) * (X + (i + 1) * D), X * (X + D)))
    b_star.append(F(0))
    c_star = [F(0)]
    for i in range(1, d + 1):
        n = d - i
        Y = (n + 1) * D + R + S
        num = i * ((i - d - 1) * D - R)
        c_star.append(F(num * Y, (Y + n * D) * (Y + (n + 1) * D)) if n else F(num, Y + D))
    return theta, b, c, tuple(b_star), tuple(c_star)


@settings(deadline=None, max_examples=150)
@given(d=st.integers(0, 14), r=_OPEN_RATIONALS, opposite=st.booleans(), data=st.data())
def test_pair_facts_decide_like_the_fraction_array(d, r, opposite, data):
    # s = -r needs r < 1; otherwise s is drawn free.
    s = -r if opposite and r < 1 else data.draw(_OPEN_RATIONALS)
    pairs = leonard._dual_hahn_pairs(d, r, s)
    assert all(q > 0 for entries in pairs for _, q in entries)
    p = build_params(d, r, s)
    assert tuple(tuple(F(n, q) for n, q in entries) for entries in pairs) == (
        _fraction_entries(d, r, s)) == (p.theta, p.b, p.c, p.b_star, p.c_star)
    shifts = data.draw(st.lists(
        st.one_of(
            st.just(canonical_shift(p)),
            st.sampled_from(_critical_shifts(p)),
            _generic_shifts(d),
        ),
        min_size=1, max_size=6,
    ))
    exhaustive = d <= 6 and data.draw(st.booleans())
    facts = leonard._ArrayFacts.from_pairs(d, r, s, pairs)
    oracle = leonard._ArrayFacts.of_array(p)
    assert [facts.verify(lam, exhaustive) for lam in shifts] == [
        oracle.verify(lam, exhaustive) for lam in shifts]
    assert [facts.witness(*lam.as_integer_ratio()) for lam in shifts] == [
        verify_leonard_pair_square(p, lam).witness for lam in shifts]
    flags = leonard._theorem_conditions(d, r, s)
    assert [flags(lam) for lam in shifts] == [
        _fraction_theorem_conditions(p, lam) for lam in shifts]


@st.composite
def _one_starred_entry_moved(draw, p):
    """p with one entry of a*, b* or c* moved by a nonzero rational, or set
    to zero."""
    field = draw(st.sampled_from(["a_star", "b_star", "c_star"]))
    values = list(getattr(p, field))
    i = draw(st.integers(0, p.d))
    values[i] = draw(st.one_of(st.just(F(0)), nonzero.map(lambda delta: values[i] + delta)))
    return replace(p, **{field: tuple(values)})


@settings(deadline=None, max_examples=150)
@given(d=st.integers(0, 8), r=_OPEN_RATIONALS, opposite=st.booleans(),
       moved=st.booleans(), data=st.data())
def test_the_oracle_squares_the_dense_matrix_over_one_denominator(d, r, opposite, moved, data):
    # The exhaustive oracle's integer product is E^2 times the public dense
    # square, entry by entry: on a run's integer pairs, and on an array with
    # one starred entry moved, read through `_ArrayFacts.of_array`.
    s = -r if opposite and r < 1 else data.draw(_OPEN_RATIONALS)
    p = build_params(d, r, s)
    if moved:
        p = data.draw(_one_starred_entry_moved(p))
        facts = leonard._ArrayFacts.of_array(p)
    else:
        facts = leonard._ArrayFacts.from_pairs(d, r, s, leonard._dual_hahn_pairs(d, r, s))
    lam = data.draw(st.one_of(st.sampled_from(_critical_shifts(p)), _generic_shifts(d)))
    E, square = facts._scaled_square(*lam.as_integer_ratio())
    assert E > 0 and (square.rows, square.cols) == (d + 1, d + 1)
    assert all(x.denominator == 1 and (x is _ZERO) == (x == 0) for x in square.entries)
    assert square.entries == tuple(E * E * x for x in lstar_shift_square(p, lam).entries)


# The facts a verdict reads.  `_starred` is left out: a run's unreduced
# pairs put it over another denominator.
_VERDICT_FACTS = ("d", "r", "s", "theta_simple", "u_irreducible", "theta_star_is_index",
                  "cut", "roots", "sigma_shift", "mirror_shift", "sigma", "mirror")


def _verdict_facts(facts):
    return {name: getattr(facts, name) for name in _VERDICT_FACTS}


@settings(deadline=None, max_examples=100)
@given(d=st.one_of(st.sampled_from((0, 1, 2)), st.integers(0, 16)), r=_OPEN_RATIONALS,
       opposite=st.booleans(), data=st.data())
def test_a_built_array_and_its_pairs_give_the_same_facts(d, r, opposite, data):
    # One constructor, two readers: a built dual Hahn array and its integer
    # pairs give the same facts, and the same reports, verdict and witness
    # included, with the exhaustive oracle at every drawn shift.
    s = -r if opposite and r < 1 else data.draw(_OPEN_RATIONALS)
    p = build_params(d, r, s)
    built = leonard._ArrayFacts.of_array(p)
    paired = leonard._ArrayFacts.from_pairs(d, r, s, leonard._dual_hahn_pairs(d, r, s))
    assert _verdict_facts(built) == _verdict_facts(paired)
    shifts = data.draw(st.lists(st.one_of(st.sampled_from(_critical_shifts(p)),
                                          _generic_shifts(d)), min_size=1, max_size=4))
    assert [built.verify(lam, True) for lam in shifts] == [
        paired.verify(lam, True) for lam in shifts]


# Arrays that each break one general fact of a valid dual Hahn array.
_ONE_FACT_BROKEN = {
    "barred": (lambda p: racah.build_racah_params(p.d, p.r), "theta_star_is_index"),
    "zero b_1": (lambda p: replace(p, b=p.b[:1] + (F(0),) + p.b[2:]), "u_irreducible"),
    "repeated theta": (lambda p: replace(p, theta=p.theta[:2] + p.theta[1:2] + p.theta[3:]),
                       "theta_simple"),
    "zero b*_0": (lambda p: replace(p, b_star=(F(0),) + p.b_star[1:]), "cut"),
}


@pytest.mark.parametrize("make, broken", _ONE_FACT_BROKEN.values(), ids=_ONE_FACT_BROKEN)
def test_of_array_reads_each_general_fact_from_the_array(make, broken):
    # The class defaults hold for every array that passes the invariant
    # test; `of_array` reads each fact from p instead, and the verdicts
    # follow the per-point body at every critical shift.
    p = make(build_params(4, F(1, 3), F(-1, 3)))
    facts = leonard._ArrayFacts.of_array(p)
    expected = dict(theta_simple=True, u_irreducible=True, theta_star_is_index=True, cut=False)
    expected[broken] = not expected[broken]
    assert {name: getattr(facts, name) for name in expected} == expected
    assert (facts.theta_star, facts.theta_star_den) == leonard._over_common_denominator(
        p.theta_star)
    shifts = _critical_shifts(p)
    assert [facts.verify(lam, True) for lam in shifts] == [
        _per_point_verify(p, lam, True) for lam in shifts]


@settings(deadline=None, max_examples=200)
@given(d=st.integers(0, 40), r=fractions_in(-3, 3, 60))
def test_canonical_shift_is_one_fraction_of_r_and_d(d, r):
    assert leonard._canonical_shift(d, r) == (r - d) / 2
    assert type(leonard._canonical_shift(d, r)) is F


def _one_sweep_middle_roots(b_star, c_star):
    """The middle-factor roots of an array with theta*_0 = 0 in one sweep
    over the integer pairs of b* and c*, each a*_i = -(b*_i + c*_i) formed
    inline over the lcm of the two denominators: the search's former route,
    kept as the oracle of `_middle_roots` on `params._diagonal_pairs`."""
    roots = []
    prev = None
    for (bn, bd), (cn, cd) in zip(b_star, c_star):
        if bd != cd:
            g = gcd(bd, cd)
            bn, cn, bd = bn * (cd // g), cn * (bd // g), bd // g * cd
        n = bn + cn  # -a*_i = n / bd
        if prev is not None:
            pn, pd = prev
            num, den = pn * bd + n * pd, 2 * pd * bd
            g = gcd(num, den)
            roots.append((num // g, den // g))
        prev = n, bd
    return roots


_R_PLUS_S_MINUS_ONE = fractions_in(-1, 0, 24).filter(lambda x: -1 < x < 0).map(
    lambda r: (r, -1 - r))


@st.composite
def _starred_pairs(draw):
    """b* and c* of a drawn dual Hahn array (d = 0 and d = 1 drawn often,
    and r + s = -1, where the last c* has its own form), as
    `_dual_hahn_pairs` gives them or perturbed: each pair scaled by its own
    factor, so unreduced and over unequal denominators, and one interior b*
    made zero."""
    d = draw(st.one_of(st.sampled_from((0, 1)), st.integers(0, 16)))
    r, s = draw(st.one_of(st.tuples(_OPEN_RATIONALS, _OPEN_RATIONALS), _R_PLUS_S_MINUS_ONE))
    _, _, _, b_star, c_star = leonard._dual_hahn_pairs(d, r, s)
    if draw(st.booleans()):
        factors = st.lists(st.integers(1, 6), min_size=d + 1, max_size=d + 1)
        b_star = [(n * k, q * k) for (n, q), k in zip(b_star, draw(factors))]
        c_star = [(n * k, q * k) for (n, q), k in zip(c_star, draw(factors))]
    if d and draw(st.booleans()):
        i = draw(st.integers(0, d - 1))
        b_star = b_star[:i] + [(0, b_star[i][1])] + b_star[i + 1:]
    return b_star, c_star


@settings(deadline=None, max_examples=200)
@given(pairs=_starred_pairs())
def test_middle_roots_of_the_completed_a_star_equal_the_one_sweep_oracle(pairs):
    b_star, c_star = pairs
    roots = leonard._middle_roots(_diagonal_pairs((0, 1), b_star, c_star))
    assert roots == _one_sweep_middle_roots(b_star, c_star)
    a_star = [-(F(*b) + F(*c)) for b, c in zip(b_star, c_star)]
    assert roots == [(-(x + y) / 2).as_integer_ratio() for x, y in zip(a_star, a_star[1:])]


THETA, B, C, B_STAR, C_STAR = range(5)  # the lists of `_dual_hahn_pairs`


def _replaced(field, at, value):
    """A perturbation that sets entry `at` of list `field` to value(pairs)."""
    def perturb(pairs):
        pairs[field][at] = value(pairs)
    return perturb


def _nu_only(pairs):
    """theta_d moved above theta_0: exactly one factor (theta_0 - theta_j) / c_j
    of nu turns negative, while theta stays simple and k, k* (which read no
    theta) keep their signs."""
    t0, e0 = pairs[THETA][0]
    pairs[THETA][-1] = (t0 + e0, e0)
    theta = [F(n, q) for n, q in pairs[THETA]]
    c = [F(n, q) for n, q in pairs[C]]
    assert len(set(theta)) == len(theta)
    assert sum((theta[0] - t) / f < 0 for t, f in zip(theta[1:], c[1:])) == 1


def _both(first, second):
    """Two perturbations applied in turn, for two invariants broken at once."""
    def perturb(pairs):
        first(pairs)
        second(pairs)
    return perturb


_ZERO_C = _replaced(C, 4, lambda p: (0, 7))
_ZERO_B_STAR = _replaced(B_STAR, 0, lambda p: (0, 1))
_ZERO_C_STAR = _replaced(C_STAR, 2, lambda p: (0, 1))
_BOUNDARY_B = _replaced(B, -1, lambda p: (1, 1))
# theta_3 = theta_1 as an unreduced pair: equal values, unequal pairs
_REPEATED_THETA = _replaced(THETA, 3, lambda p: tuple(2 * v for v in p[THETA][1]))
_FLIPPED_C = _replaced(C, 2, lambda p: (-p[C][2][0], p[C][2][1]))

_PAIR_PERTURBATIONS = {
    "zero interior b": (_replaced(B, 1, lambda p: (0, 1)), "interior b_i, c_i must be nonzero"),
    "zero interior c": (_ZERO_C, "interior b_i, c_i must be nonzero"),
    "zero interior b*": (_ZERO_B_STAR, "interior b*_i, c*_i must be nonzero"),
    "zero interior c*": (_ZERO_C_STAR, "interior b*_i, c*_i must be nonzero"),
    "nonzero boundary b_d": (_BOUNDARY_B, "boundary entries b_d, c_0, b*_d, c*_0 must be zero"),
    "repeated theta": (_REPEATED_THETA, "eigenvalues theta_i are not distinct"),
    "flipped c_j": (_FLIPPED_C, "weights k_i, k*_i and nu must be positive"),
    "nu only": (_nu_only, "weights k_i, k*_i and nu must be positive"),
    # Two invariants broken at once: the first in the order zero pattern,
    # boundary, theta distinct, weights is the one reported.
    "zero b* and zero c": (_both(_ZERO_B_STAR, _ZERO_C), "interior b_i, c_i must be nonzero"),
    "flipped c_j and zero c": (_both(_FLIPPED_C, _ZERO_C), "interior b_i, c_i must be nonzero"),
    "zero c* and nonzero boundary": (_both(_BOUNDARY_B, _ZERO_C_STAR),
                                     "interior b*_i, c*_i must be nonzero"),
    "repeated theta and nonzero boundary": (_both(_REPEATED_THETA, _BOUNDARY_B),
                                            "boundary entries b_d, c_0, b*_d, c*_0 must be zero"),
    "flipped c_j and repeated theta": (_both(_FLIPPED_C, _REPEATED_THETA),
                                       "eigenvalues theta_i are not distinct"),
}


@pytest.mark.parametrize("perturb, message", _PAIR_PERTURBATIONS.values(),
                         ids=_PAIR_PERTURBATIONS)
def test_perturbed_pairs_fail_like_parameter_array(perturb, message):
    d, r, s = 4, F(1, 3), F(1, 2)
    pairs = [list(entries) for entries in leonard._dual_hahn_pairs(d, r, s)]
    perturb(pairs)
    theta, b, c, b_star, c_star = (tuple(F(n, q) for n, q in entries) for entries in pairs)
    with pytest.raises(ParameterInvariantError) as from_array:
        complete_fractions(d, r, s, theta, tuple(map(F, range(d + 1))), b, c, b_star, c_star)
    with pytest.raises(ParameterInvariantError) as from_pairs:
        leonard._ArrayFacts.from_pairs(d, r, s, pairs)
    with pytest.raises(ParameterInvariantError) as from_oracle:
        multi_pass_check_invariants(d, *pairs)
    assert str(from_array.value) == str(from_pairs.value) == str(from_oracle.value) == message


# -- the ordering rule ----------------------------------------------------------


def _with_middle_factors(p, nonzero):
    """p with a* replaced so that, at shift 0, the middle factor
    a*_i + a*_{i+1} is 1 for i in `nonzero` and 0 for every other i."""
    a_star = [F(0)]
    for i in range(p.d):
        a_star.append(F(int(i in nonzero)) - a_star[-1])
    return replace(p, a_star=tuple(a_star))


def _assert_ordering_at_shift_0(q, expected):
    """The verdict's witness at shift 0 is `expected`, and so are the dense
    route's and the exhaustive scan's."""
    d = q.d
    square = lstar_shift_square(q, 0)
    report = verify_leonard_pair_square(q, 0, exhaustive=True)
    assert verify_leonard_pair_square(q, 0).witness == report.witness == expected, q
    assert report.verdict == (expected is not None), q
    assert _dense_witness(square, d) == expected, q
    assert scan_tridiagonal_orderings(square) == (
        [] if expected is None else sorted([expected.perm, expected.perm[::-1]])
    ), q


def test_ordering_witness_at_every_d():
    # sigma when only the last middle factor is nonzero, the mirror when only
    # the first is, and no witness for one interior factor, both end factors
    # or none, or when a b* or c* is zero.  d = 3's interior factor is the
    # candidates' gap (next test).
    for d in range(1, 13):
        p = build_params(d, F(1, 2), F(1, 3))
        sigma, _, mirror, _ = candidate_orderings(d)
        cases = [({d - 1}, sigma), ({0}, sigma if d == 1 else mirror), (set(), None)]
        if d > 1:
            cases.append(({0, d - 1}, None))
        if d != 3:
            cases += [({i}, None) for i in range(1, d - 1)]
        for nonzero, expected in cases:
            _assert_ordering_at_shift_0(_with_middle_factors(p, nonzero), expected)
        q = _with_middle_factors(p, {d - 1})
        for field, i in product(("b_star", "c_star"), range(d)):
            values = list(getattr(q, field))
            values[i if field == "b_star" else i + 1] = F(0)
            _assert_ordering_at_shift_0(replace(q, **{field: tuple(values)}), None)


def test_candidates_miss_the_path_through_the_middle_at_d3():
    # At d = 3 the middle factor m_1 alone joins the chain ends 2 and 1: the
    # path 0-2-1-3 is a witness, but none of the four candidates.  This is a
    # known limit of the candidate verdict, and the exhaustive oracle says so.
    q = replace(build_params(3, F(1, 2), F(1, 3)), a_star=(F(0), F(0), F(1), F(-1)))
    assert scan_tridiagonal_orderings(lstar_shift_square(q, 0)) == [
        (0, 2, 1, 3), (3, 1, 2, 0)
    ]
    assert verify_leonard_pair_square(q, 0).witness is None
    assert not verify_leonard_pair_square(q, 0).verdict
    with pytest.raises(InternalInconsistencyError):
        verify_leonard_pair_square(q, 0, exhaustive=True)


@settings(deadline=None, max_examples=100)
@given(r=_OPEN_RATIONALS, s=_OPEN_RATIONALS, barred_r=_BARRED_R)
def test_built_arrays_never_reach_the_d3_gap(r, s, barred_r):
    # m_1 alone needs m_0 = m_2 = 0, so m_0 - m_2 = a*_0 + a*_1 - a*_2 - a*_3,
    # which does not depend on the shift, must vanish.  On dual Hahn arrays
    # it is -4(r - s)/(r + s + 4), and at r = s all three m_i are equal; on
    # barred arrays it is -4 r^2, nonzero on the domain.
    a = build_params(3, r, s).a_star
    assert a[0] + a[1] - a[2] - a[3] == -4 * (r - s) / (r + s + 4)
    a = build_params(3, r, r).a_star
    assert a[0] + a[1] == a[1] + a[2] == a[2] + a[3]
    a = racah.build_racah_params(3, barred_r).a_star
    assert a[0] + a[1] - a[2] - a[3] == -4 * barred_r**2 != 0


# -- grid order ---------------------------------------------------------------


def _sorted_grid_points(grid):
    """The grid builder that sorted all N points by their Fraction tuples."""
    points = []
    for d, r in product(grid.d_values, grid.r_values):
        s_opts = grid.s_values if grid.s_values is not None else (-r,)
        for s in s_opts:
            shifts = (
                grid.shift_values
                if grid.shift_values is not None
                else ((F(r) - d) / 2,)
            )
            for lam in shifts:
                points.append((d, F(r), F(s), F(lam)))
    points.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    return points


_GRID_VALUES = st.lists(
    fractions_in(-3, 3, 6), min_size=1, max_size=4
)


@settings(deadline=None, max_examples=150)
@given(
    d_values=st.lists(st.integers(-2, 8), min_size=1, max_size=4),
    r_values=_GRID_VALUES,
    s_values=st.one_of(st.none(), _GRID_VALUES),
    shift_values=st.one_of(st.none(), _GRID_VALUES),
)
def test_grid_points_equal_the_sorted_points(d_values, r_values, s_values, shift_values):
    # The runs, flattened, are the sorted points.  Unsorted and negative
    # lists in every mode, s = -r and the canonical shift included (None);
    # the points carry Fractions whatever was given.
    grid = SearchGrid(
        d_values=tuple(d_values),
        r_values=tuple(r_values),
        s_values=None if s_values is None else tuple(s_values),
        shift_values=None if shift_values is None else tuple(shift_values),
    )
    runs = leonard._grid_runs(grid)
    points = [(d, r, s, lam) for d, r, s, shifts in runs for lam in shifts]
    assert points == _sorted_grid_points(grid)
    # one nonempty run per distinct (d, r, s), in order
    assert [run[:3] for run in runs] == sorted({point[:3] for point in points})
    assert all(shifts for *_, shifts in runs)
    assert all(
        isinstance(d, int) and all(type(v) is F for v in (r, s, lam))
        for d, r, s, lam in points
    )
