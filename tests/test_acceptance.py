"""Acceptance suite: each test covers one numbered criterion at its stated
tolerance (exact equality everywhere; a few have wall-clock budgets) and
prints one pass/fail line.  Run with -s to stream the lines."""

import time
from fractions import Fraction as F
from functools import lru_cache
from itertools import product

from leonard_lab.leonard import (
    candidate_orderings,
    canonical_shift,
    column_sums,
    d2_condition,
    is_dual_almost_bipartite,
    lstar_shift_square,
    lstar_shift_square_closed_form,
    verify_leonard_pair_square,
)
from leonard_lab.matrices import RationalMatrix
from leonard_lab.params import build_params, check_closed_forms
from leonard_lab.racah import verify_racah
from leonard_lab.representations import (
    eval_table_hypergeometric,
    matrix_Lstar_ustar_basis,
    value_row_degree,
    verify_dual_hahn,
)
from leonard_lab.sl2mod import example_pair, verify_example_match
from test_leonard import diagonal
from test_params import GRID_RS

THEOREM_R = (F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4))
D_MAX = 12


@lru_cache(maxsize=None)
def _params(d, r, s):
    return build_params(d, r, s)


@lru_cache(maxsize=None)
def _hyper_table(d, r, s):
    return eval_table_hypergeometric(_params(d, r, s))


@lru_cache(maxsize=None)
def _dual_verdict(d, r, s):
    return verify_dual_hahn(d, r, s)


def _report(num, name, ok, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f"  [{elapsed:.1f}s"
        timing += f" < {budget:.0f}s]" if budget is not None else "]"
    print(f"criterion {num:02d} [{status}] {name}{timing}")
    assert ok, f"criterion {num} failed: {name}"


def test_criterion_01_closed_form_consistency():
    start = time.perf_counter()
    ok = True
    for d, r, s in product(range(D_MAX + 1), GRID_RS, GRID_RS):
        if not check_closed_forms(_params(d, r, s)):
            ok = False
            break
    elapsed = time.perf_counter() - start
    _report(1, "product-form k, k*, nu equal closed forms on the full grid",
            ok and elapsed < 30, elapsed, 30)


def test_criterion_02_dual_evaluation_oracle():
    # The verdict's routes_agree implies exact degrees; the divided
    # differences of each 3F2 row decide them on their own.
    ok = True
    for d, r, s in product(range(D_MAX + 1), GRID_RS, GRID_RS):
        theta, table = _params(d, r, s).theta, _hyper_table(d, r, s)
        if not _dual_verdict(d, r, s).ok or any(
            value_row_degree(theta, table.values.row(i)) != i for i in range(d + 1)
        ):
            ok = False
            break
    _report(2, "dual Hahn verdict holds (3F2 table equals recurrence table); "
               "divided-difference degrees exact", ok)


def test_criterion_03_orthogonality_and_difference_equations():
    p = _params(2, F(1, 2), F(-1, 2))
    table = _hyper_table(2, F(1, 2), F(-1, 2))
    worked = sum((table.at(2, h) ** 2 * p.k_star[h] for h in range(3)), F(0)) == 16
    ok = worked
    for d, r, s in product(range(D_MAX + 1), GRID_RS, GRID_RS):
        if not ok:
            break
        verdict = _dual_verdict(d, r, s)
        ok = verdict.orthogonality and verdict.difference_equation and verdict.top_row
    _report(3, "orthogonality (worked sum = 16) and difference equations exact", ok)


def test_criterion_04_square_entries_and_column_sums():
    ok = True
    for d, r, s in product(range(D_MAX + 1), GRID_RS, GRID_RS):
        if not ok:
            break
        p = _params(d, r, s)
        for lam in (F(0), F(1, 2), F(-1, 2), canonical_shift(p)):
            square = lstar_shift_square(p, lam)
            if square != lstar_shift_square_closed_form(p, lam):
                ok = False
                break
            if any(v != lam**2 for v in column_sums(square)):
                ok = False
                break
    _report(4, "shifted square matches the five-case closed form; columns sum to lambda^2", ok)


def test_criterion_05_main_theorem_forward_and_converse():
    start = time.perf_counter()
    ok = True
    for d, r in product(range(1, D_MAX + 1), THEOREM_R):
        p = _params(d, r, -r)
        report = verify_leonard_pair_square(p, canonical_shift(p))
        if not report.verdict or report.witness != candidate_orderings(d)[0]:
            ok = False
            break
    if ok:
        for d, r in product(range(3, 11), THEOREM_R):
            perturbed_s = verify_leonard_pair_square(
                _params(d, r, -r + F(1, 2)), (r - d) / 2
            )
            perturbed_shift = verify_leonard_pair_square(
                _params(d, r, -r), (r - d) / 2 + 1
            )
            if perturbed_s.verdict or perturbed_shift.verdict:
                ok = False
                break
    elapsed = time.perf_counter() - start
    _report(5, "theorem forward (first-ordering witness) and converse perturbations",
            ok and elapsed < 60, elapsed, 60)


def test_criterion_06_exhaustive_ordering_oracle():
    start = time.perf_counter()
    ok = True
    for d in range(1, 8):
        for r, s in ((F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 4))):
            p = _params(d, r, s)
            lam0 = canonical_shift(p)
            for lam in {lam0, lam0 + 1, F(0)}:
                report = verify_leonard_pair_square(p, lam, exhaustive=True)
                if not dict(report.condition_trace)[
                    "exhaustive permutation oracle agrees with candidates"
                ]:
                    ok = False
    elapsed = time.perf_counter() - start
    _report(6, "exhaustive permutation oracle agrees with the four candidates (d <= 7)",
            ok and elapsed < 300, elapsed, 300)


def test_criterion_07_low_diameter_corollaries():
    ok = True
    for r, s in product((F(1, 4), F(1, 2), F(3, 4)), repeat=2):
        p = _params(1, r, s)
        for lam in (F(-1, 2), F(0), F(-1), F(1, 2), F(-5, 4)):
            if verify_leonard_pair_square(p, lam).verdict != (2 * lam != -1):
                ok = False
    p2 = _params(2, F(1, 2), F(-1, 2))
    both_roots = (F(-3, 4), F(-9, 8))
    for lam in both_roots + (F(0), F(-1), F(-8, 7), F(1, 2)):
        want = d2_condition(p2, lam)
        if verify_leonard_pair_square(p2, lam).verdict != want:
            ok = False
    ok = ok and all(d2_condition(p2, lam) for lam in both_roots)
    for r, s in ((F(1, 2), F(-1, 4)), (F(3, 4), F(3, 4)), (F(1, 4), F(1, 2))):
        pd2 = _params(2, r, s)
        for lam in (F(0), F(-1), F(-3, 4), F(-9, 8)):
            if verify_leonard_pair_square(pd2, lam).verdict != d2_condition(pd2, lam):
                ok = False
    _report(7, "d=1 and d=2 closed conditions match verdicts (both roots included)", ok)


def test_criterion_08_racah_identification():
    ok = True
    for d, r in product(range(D_MAX + 1), THEOREM_R):
        if not ok:
            break
        ok = verify_racah(d, r).ok
    _report(8, "4F3 table is the re-indexed dual Hahn table; all barred identities hold", ok)


def test_criterion_09_sl2_examples():
    ok = all(
        verify_example_match(kind, n) for kind in (0, 1) for n in range(1, 26, 2)
    )
    first, second = example_pair(0, 3)
    ok = ok and first == RationalMatrix.from_rows(
        [[F(1, 2), F(1, 2)], [F(3, 2), F(3, 2)]]
    )
    ok = ok and second == RationalMatrix.diagonal([0, 1])
    _report(9, "generator combinations reproduce the pair for both kinds, odd n <= 25", ok)


def test_criterion_10_dual_almost_bipartite():
    ok = True
    for d, r in product(range(1, D_MAX + 1), THEOREM_R):
        p = _params(d, r, -r)
        lam = canonical_shift(p)
        if not is_dual_almost_bipartite(p, lam):
            ok = False
            break
        shifted = matrix_Lstar_ustar_basis(p).plus_scalar(lam)
        diag = diagonal(shifted)
        if any(v != 0 for v in diag[:-1]) or diag[-1] != r * (d + 1) / 2:
            ok = False
            break
    _report(10, "shifted operator has zero diagonal except last entry r(d+1)/2", ok)
