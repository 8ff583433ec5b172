from fractions import Fraction as F
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_lab import leonard, racah
from leonard_lab.leonard import (
    BasisOrdering,
    LeonardPairReport,
    SearchGrid,
    banded_witness,
    candidate_orderings,
    canonical_shift,
    column_sums,
    d2_condition,
    is_dual_almost_bipartite,
    lstar_shift_square,
    lstar_shift_square_closed_form,
    search_square_preserving,
    shift_square_pattern,
    theorem_conditions,
    verify_leonard_pair_square,
)
from leonard_lab.matrices import RationalMatrix
from leonard_lab.params import build_params
from leonard_lab.representations import (
    matrix_L_u_basis,
    matrix_Lstar_u_basis,
    matrix_Lstar_ustar_basis,
)
from leonard_lab.scan import scan_tridiagonal_orderings

GRID_RS = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]


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


def _closed_form_bands(p, lam):
    """The off-diagonal entries (i, j), 0 < |i - j| <= 2, of the square's
    closed form: the four cases whose zero pattern the verdict reads."""
    square = lstar_shift_square_closed_form(p, lam)
    n = p.d + 1
    return {
        (i, j): square.at(i, j) for i in range(n) for j in range(n) if 0 < abs(i - j) <= 2
    }


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
    diag = m.diagonal_entries()
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
        st.fractions(min_value=-d - 2, max_value=2, max_denominator=12),
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
            st.fractions(min_value=-2, max_value=2, max_denominator=6).filter(bool))
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


@pytest.mark.parametrize(
    "grid",
    [
        SearchGrid(d_values=(1, 2), r_values=(F(1, 2), F(-1, 2))),
        SearchGrid(d_values=(1, 2, 3), r_values=(F(1, 2),)),
    ],
    ids=["d1-2", "d1-3"],
)
def test_search_worker_count_from_environment(monkeypatch, grid):
    monkeypatch.setenv("LEONARD_LAB_THREADS", "2")
    parallel = list(search_square_preserving(grid))
    monkeypatch.setenv("LEONARD_LAB_THREADS", "1")
    assert parallel == list(search_square_preserving(grid))


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
    diag = square_u.diagonal_entries()
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


_OPEN_RATIONALS = st.fractions(min_value=-1, max_value=3, max_denominator=24).filter(
    lambda x: x > -1
)


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
        lam = draw(st.fractions(min_value=-d - 2, max_value=2, max_denominator=12))
    return d, r, s, lam


@settings(deadline=None, max_examples=120)
@given(point=_search_points(), exhaustive=st.booleans(), data=st.data())
def test_banded_decision_equals_dense_route(point, exhaustive, data):
    d, r, s, lam = point
    p = build_params(d, r, s)
    report = verify_leonard_pair_square(p, lam, exhaustive=exhaustive)
    assert (report.verdict, report.witness, report.condition_trace) == _dense_verify(
        p, lam, exhaustive
    )

    # The closed form is the dense product, the dense square is zero more
    # than two off the diagonal, and the pattern is the zero pattern of the
    # closed form's bands.
    dense = lstar_shift_square(p, lam)
    assert lstar_shift_square_closed_form(p, lam) == dense
    bands = _closed_form_bands(p, lam)
    assert shift_square_pattern(p, lam) == {k: v != 0 for k, v in bands.items()}
    assert all(dense.at(i, j) == 0 for i in range(d + 1) for j in range(d + 1)
               if abs(i - j) > 2)

    # Zeroing one nonzero entry changes both sides alike; on a witness path
    # it breaks the path, so both sides then find none.
    nonzero = sorted(key for key, v in bands.items() if v != 0)
    if nonzero:
        i, j = data.draw(st.sampled_from(nonzero))
        after = banded_witness({**bands, (i, j): F(0)}, d)
        assert after == _dense_witness(_with_zero(dense, i, j), d)
        if report.witness is not None:
            assert after is None


def test_search_yields_first_record_before_the_last_point_is_evaluated(monkeypatch):
    monkeypatch.setenv("LEONARD_LAB_THREADS", "1")
    evaluated = []
    evaluate = leonard._evaluate_point

    def counting(point):
        evaluated.append(point[0])
        return evaluate(point)

    monkeypatch.setattr(leonard, "_evaluate_point", counting)
    records = search_square_preserving(SearchGrid(d_values=(1, 2, 3), r_values=(F(1, 2),)))
    assert next(records).d == 1
    assert evaluated == [1]
    assert [rec.d for rec in records] == [2, 3]
    assert evaluated == [1, 2, 3]


def test_search_pool_with_a_partial_last_chunk(monkeypatch):
    # 11 points over 2 workers go out in chunks of ceil(11 / 8) = 2
    grid = SearchGrid(d_values=tuple(range(1, 12)), r_values=(F(1, 3),))
    monkeypatch.setenv("LEONARD_LAB_THREADS", "2")
    parallel = list(search_square_preserving(grid))
    monkeypatch.setenv("LEONARD_LAB_THREADS", "1")
    assert len(parallel) == 11
    assert parallel == list(search_square_preserving(grid))


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and maps
    serially, so no process starts."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "setting, cores, d_values, workers",
    [
        ("100000", 4, (1, 2), 2),
        ("100000", 4, tuple(range(1, 11)), 4),
        ("3", 4, tuple(range(1, 11)), 3),
        ("100000", None, (1, 2), None),
        ("100000", 4, (1,), None),
    ],
    ids=["points", "cores", "setting", "no-core-count", "one-point"],
)
def test_search_pool_is_bounded_by_cores_and_points(monkeypatch, setting, cores, d_values,
                                                    workers):
    # The pool forks every worker at its first submit, so its size is the
    # least of the setting, the cores and the points; one worker runs serially.
    grid = SearchGrid(d_values=d_values, r_values=(F(1, 2),))
    monkeypatch.setenv("LEONARD_LAB_THREADS", "1")
    serial = list(search_square_preserving(grid))
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(leonard, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(leonard.os, "cpu_count", lambda: cores)
    monkeypatch.setenv("LEONARD_LAB_THREADS", setting)
    assert list(search_square_preserving(grid)) == serial
    assert _RecordingPool.sizes == ([] if workers is None else [workers])


def test_banded_witness_needs_both_directions():
    # Path 0 - 2 - 1, the first candidate at d = 2, with (2, 0) missing and
    # (1, 0) nonzero instead: still 2d nonzero entries, but no witness.
    one_way = {(0, 1): F(0), (0, 2): F(1), (1, 0): F(1), (1, 2): F(1), (2, 0): F(0),
               (2, 1): F(1)}
    both_ways = {**one_way, (1, 0): F(0), (2, 0): F(1)}
    for bands in (one_way, both_ways):
        dense = RationalMatrix.from_rows(
            [[bands.get((i, j), F(7)) for j in range(3)] for i in range(3)]
        )
        assert banded_witness(bands, 2) == _dense_witness(dense, 2)
    assert banded_witness(one_way, 2) is None
    assert banded_witness(both_ways, 2) == candidate_orderings(2)[0]


# -- the Fraction verdict that the integer verdict replaced --------------------


def _fraction_verify(p, shift, exhaustive=False):
    """`verify_leonard_pair_square` as it was decided on Fractions: the
    ordering on the values of the closed-form bands, the diagonal as squares
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
    witness = banded_witness(_closed_form_bands(p, lam), d)
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
    assert shift_square_pattern(p, lam) == {
        k: v != 0 for k, v in _closed_form_bands(p, lam).items()
    }
    return report


@settings(deadline=None, max_examples=150)
@given(point=_search_points(), exhaustive=st.booleans())
def test_integer_verdict_equals_fraction_verdict(point, exhaustive):
    d, r, s, lam = point
    _assert_matches_fraction_verdict(build_params(d, r, s), lam, exhaustive)


def _zeroing_shifts(p):
    """Shifts at which some band or diagonal condition changes: each middle
    factor 2 lam + a*_i + a*_{i+1} vanishes, two diagonal entries collapse,
    (theta*_i + lam)^2 meets (i + lam)^2 from the other side, and the
    canonical (r - d)/2."""
    d, a, t = p.d, p.a_star, p.theta_star
    shifts = [-(a[i] + a[i + 1]) / 2 for i in range(d)]
    shifts += [-(t[i] + t[j]) / 2 for i in range(d + 1) for j in range(i + 1, d + 1)]
    shifts += [-(t[i] + i) / 2 for i in range(d + 1)]
    shifts.append((p.r - p.d) / 2)
    return shifts


_BARRED_R = st.fractions(min_value=-1, max_value=1, max_denominator=30).filter(
    lambda x: -1 < x < 1 and x != 0
)


@settings(deadline=None, max_examples=80)
@given(d=st.integers(0, 12), r=_BARRED_R, exhaustive=st.booleans(), data=st.data())
def test_integer_verdict_on_barred_arrays(d, r, exhaustive, data):
    # The barred theta*_i = (i + (r - d)/2)^2 are not integers, so theta* and
    # a* have a common denominator E > 1.
    p = racah.build_racah_params(d, r)
    lam = data.draw(
        st.one_of(
            st.sampled_from(_zeroing_shifts(p)),
            st.fractions(min_value=-d - 2, max_value=2, max_denominator=12),
        )
    )
    _assert_matches_fraction_verdict(p, lam, exhaustive)


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
    _assert_matches_fraction_verdict(q, lam)


@settings(deadline=None, max_examples=150)
@given(d=st.integers(1, 8), data=st.data())
def test_banded_witness_on_one_way_paths(d, data):
    # A candidate's path with one direction of one pair removed and another
    # band entry added in its place: still 2d entries, but no longer a path
    # in both directions.
    perm = data.draw(st.sampled_from(candidate_orderings(d))).perm
    path = {(a, b) for a, b in zip(perm, perm[1:])}
    pattern = path | {(b, a) for a, b in path}
    if data.draw(st.booleans()):
        pattern.discard(data.draw(st.sampled_from(sorted(pattern))))
        spare = sorted(
            (i, j) for i in range(d + 1) for j in range(d + 1)
            if 0 < abs(i - j) <= 2 and (i, j) not in pattern
        )
        if spare:
            pattern.add(data.draw(st.sampled_from(spare)))
    bands = {
        (i, j): (i, j) in pattern
        for i in range(d + 1) for j in range(d + 1) if 0 < abs(i - j) <= 2
    }
    dense = RationalMatrix.from_rows(
        [[F(1) if i == j or (i, j) in pattern else F(0) for j in range(d + 1)]
         for i in range(d + 1)]
    )
    assert banded_witness(bands, d) == _dense_witness(dense, d)


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
                points.append((d, F(r), F(s), F(lam), grid.exhaustive))
    points.sort(key=lambda t: (t[0], t[1], t[2], t[3]))
    return points


_GRID_VALUES = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=6), min_size=1, max_size=4
)


@settings(deadline=None, max_examples=150)
@given(
    d_values=st.lists(st.integers(-2, 8), min_size=1, max_size=4),
    r_values=_GRID_VALUES,
    s_values=st.one_of(st.none(), _GRID_VALUES),
    shift_values=st.one_of(st.none(), _GRID_VALUES),
    exhaustive=st.booleans(),
)
def test_grid_points_equal_the_sorted_points(
    d_values, r_values, s_values, shift_values, exhaustive
):
    # Unsorted and negative lists in every mode, s = -r and the canonical
    # shift included (None); the points carry Fractions whatever was given.
    grid = SearchGrid(
        d_values=tuple(d_values),
        r_values=tuple(r_values),
        s_values=None if s_values is None else tuple(s_values),
        shift_values=None if shift_values is None else tuple(shift_values),
        exhaustive=exhaustive,
    )
    points = leonard._grid_points(grid)
    assert points == _sorted_grid_points(grid)
    assert all(
        isinstance(d, int) and all(type(v) is F for v in (r, s, lam))
        for d, r, s, lam, _ in points
    )
