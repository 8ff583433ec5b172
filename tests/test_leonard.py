from fractions import Fraction as F
from itertools import product

import pytest

from leonard_lab.leonard import (
    BasisOrdering,
    SearchGrid,
    candidate_orderings,
    canonical_shift,
    column_sums,
    d2_condition,
    is_dual_almost_bipartite,
    is_irreducible_tridiagonal,
    lstar_shift_square,
    lstar_shift_square_closed_form,
    search_hits,
    search_square_preserving,
    theorem_conditions,
    verify_leonard_pair_square,
)
from leonard_lab.matrices import RationalMatrix
from leonard_lab.params import build_params
from leonard_lab.representations import matrix_L_u_basis

GRID_RS = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]


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
    from leonard_lab.scan import scan_tridiagonal_orderings

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


def test_search_theorem_grid_all_hit():
    grid = SearchGrid(
        d_values=tuple(range(3, 7)), r_values=(F(1, 2), F(-1, 2))
    )
    records = search_square_preserving(grid)
    assert len(records) == 8
    hits = search_hits(records)
    assert len(hits) == 8
    assert all(rec.theorem_predicted for rec in hits)


def test_search_r_equals_s_no_hits():
    grid = SearchGrid(
        d_values=(3,),
        r_values=(F(1, 2),),
        s_values=(F(1, 2),),
        shift_values=(F(0), F(-1), F(-5, 4), F(1, 2)),
    )
    assert search_hits(search_square_preserving(grid)) == []


def test_search_finds_non_theorem_root_at_d2():
    grid = SearchGrid(
        d_values=(2,),
        r_values=(F(1, 2),),
        shift_values=(F(-9, 8),),
    )
    hits = search_hits(search_square_preserving(grid))
    assert len(hits) == 1
    assert not hits[0].theorem_predicted
    assert hits[0].theorem_flags == (True, True, False)


def test_search_is_deterministically_ordered():
    grid = SearchGrid(
        d_values=(2, 1), r_values=(F(1, 2), F(-1, 2)), shift_values=(F(0), F(-1))
    )
    records = search_square_preserving(grid)
    keys = [(rec.d, rec.r, rec.s, rec.shift) for rec in records]
    assert keys == sorted(keys)


def test_search_parallel_matches_serial():
    grid = SearchGrid(d_values=(1, 2, 3), r_values=(F(1, 2),))
    serial = search_square_preserving(grid, max_workers=1)
    parallel = search_square_preserving(grid, max_workers=2)
    assert serial == parallel


def test_search_worker_count_from_environment(monkeypatch):
    monkeypatch.setenv("LEONARD_LAB_THREADS", "2")
    grid = SearchGrid(d_values=(1, 2), r_values=(F(1, 2), F(-1, 2)))
    from_env = search_square_preserving(grid)
    monkeypatch.setenv("LEONARD_LAB_THREADS", "1")
    assert from_env == search_square_preserving(grid)


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
