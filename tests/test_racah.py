import random
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leonard_lab import hyper, racah, representations
from leonard_lab.leonard import candidate_orderings, canonical_shift, lstar_shift_square
from leonard_lab.params import ParameterDomainError, build_params
from leonard_lab.racah import (
    RacahVerdict,
    affine_maps,
    build_racah_params,
    check_barred_matrices,
    check_barred_recurrence,
    check_index_mapping,
    check_racah_orthogonality,
    check_starred_products,
    check_table_matches_permuted_dual,
    check_unbarred_identities,
    check_varphi,
    eval_table_4F3,
    index_map,
    standard_racah_eval,
    varphi,
    verify_racah,
)
from leonard_lab.hyper import hypergeom_terminating
from leonard_lab.matrices import RationalMatrix
from leonard_lab.representations import (
    ValueTable,
    check_orthogonality,
    eval_table_hypergeometric,
    eval_table_recurrence,
    matrix_L_u_basis,
    matrix_Lstar_ustar_basis,
)
from test_params import built_when_run, complete_fractions, fractions_in, nonzero
from test_representations import replaced, with_entry, with_row

R_VALUES = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4)]


def test_build_frozen_values():
    q1 = build_racah_params(1, F(1, 2))
    assert q1.theta == (2, 0)
    q2 = build_racah_params(2, F(1, 2))
    assert q2.theta == (6, 0, 2)
    assert q2.theta_star == (F(9, 16), F(1, 16), F(25, 16))
    assert q2.b == (3, F(1, 2), 0)
    assert q2.nu == F(16, 5)
    assert q2.b_star[1] == F(-9, 8)
    assert q2.k_star == (1, F(2, 5), F(9, 5))


def test_domain_errors():
    # No integer r is admitted, so no half-shifted 4F3 denominator parameter
    # (r - d)/2 + h or (r - d + 1)/2 + h can vanish (`eval_table_4F3`).
    for d in range(4):
        for r in (F(0), F(1), F(-1), F(2), F(3, 2)):
            with pytest.raises(ParameterDomainError):
                build_racah_params(d, r)
    for d in (True, False):
        with pytest.raises(ParameterDomainError, match="d must be a natural number"):
            build_racah_params(d, "1/2")


def test_index_map_examples():
    assert index_map(2) == (0, 2, 1)
    assert index_map(1) == (0, 1)
    assert index_map(4) == (0, 2, 4, 3, 1)
    assert index_map(0) == (0,)
    # the map is exactly the first candidate ordering, and equals sigma's
    # closed form with its own branch at half of d
    for d in range(1, 65):
        half = d // 2
        sigma = tuple(2 * i if i <= half else 2 * (d - i) + 1 for i in range(d + 1))
        assert index_map(d) == candidate_orderings(d)[0].perm == sigma, d


def test_index_mapping_examples():
    q = build_racah_params(2, F(1, 2))
    p = build_params(q.d, q.r, q.s)
    assert p.theta == (6, 2, 0)
    assert q.theta == tuple(p.theta[j] for j in index_map(2))
    assert check_index_mapping(p, q)
    q1 = build_racah_params(1, F(1, 2))
    p1 = build_params(q1.d, q1.r, q1.s)
    assert q1.theta == p1.theta
    assert check_index_mapping(p1, q1)


def test_index_mapping_rejects_mismatched_inputs():
    q = build_racah_params(2, F(1, 2))
    with pytest.raises(ValueError):
        check_index_mapping(build_params(2, F(1, 2), F(1, 4)), q)
    with pytest.raises(ValueError):
        check_index_mapping(build_params(3, F(1, 2), F(-1, 2)), q)


def test_unbarred_identities_worked():
    q = build_racah_params(2, F(1, 2))
    p = build_params(q.d, q.r, q.s)
    assert q.b == p.b
    assert q.nu == p.nu == F(16, 5)
    assert check_unbarred_identities(p, q)


def test_starred_products_worked_even_middle():
    q = build_racah_params(2, F(1, 2))
    p = build_params(q.d, q.r, q.s)
    middle = F(2 + 1) * F(1, 2) / 2
    assert q.b_star[1] == middle * p.c_star[2] == F(-9, 8)
    assert q.k_star == tuple(p.k_star[j] for j in index_map(2))
    assert check_starred_products(p, q)


def test_starred_products_worked_odd_middle():
    q = build_racah_params(3, F(1, 2))
    p = build_params(q.d, q.r, q.s)
    middle = F(3 + 1) * F(1, 2) / 2
    assert q.b_star[1] == middle * p.b_star[2]
    assert q.c_star[2] == middle * p.c_star[3]
    assert check_starred_products(p, q)


def test_varphi_closed_form_and_quotient():
    for d in (1, 2, 3, 5):
        q = build_racah_params(d, F(1, 2))
        assert check_varphi(q)
    q2 = build_racah_params(2, F(1, 2))
    assert varphi(q2, 1) == F(-3, 2)
    with pytest.raises(IndexError):
        varphi(q2, 0)
    with pytest.raises(IndexError):
        varphi(q2, 3)


def test_4f3_table_frozen_and_permuted():
    q = build_racah_params(1, F(1, 2))
    table = eval_table_4F3(q)
    assert table.at(1, 1) == -3
    q2 = build_racah_params(2, F(1, 2))
    table2 = eval_table_4F3(q2)
    assert table2.values.to_rows() == [
        [1, 1, 1],
        [1, -1, F(-1, 3)],
        [1, 5, F(-5, 3)],
    ]
    assert list(table2.values.row(0)) == [1, 1, 1]


def assert_identity_suite(d, r):
    verdict = verify_racah(d, r)
    assert (verdict.d, verdict.r) == (d, r)
    assert verdict.ok, verdict


def test_full_identity_suite_on_grid():
    for d in range(0, 7):
        for r in R_VALUES:
            assert_identity_suite(d, r)


@settings(deadline=None, max_examples=40)
@given(
    d=st.integers(0, 8),
    r=fractions_in(-1, 1, 60).filter(lambda x: -1 < x < 1 and x != 0),
)
def test_full_identity_suite_for_drawn_rationals(d, r):
    assert_identity_suite(d, r)


def test_racah_orthogonality_worked_instance():
    q = build_racah_params(2, F(1, 2))
    table = eval_table_4F3(q)
    total = sum((table.at(2, h) ** 2 * q.k_star[h] for h in range(3)), F(0))
    assert total == 16
    assert q.nu / q.k[2] == 16


def test_barred_table_checks_read_the_shape_from_the_barred_array():
    """A whole 4F3 table of another d is refused, not read as far as the
    barred array reaches; the shared-parameter check still comes first."""
    q = build_racah_params(3, F(2, 7))
    p = build_params(3, q.r, q.s)
    other = eval_table_4F3(build_racah_params(4, q.r))
    for check in (partial(check_table_matches_permuted_dual, p, q),
                  partial(check_racah_orthogonality, q), partial(check_barred_recurrence, q)):
        with pytest.raises(ValueError, match="expected 4x4 for d=3, got 5x5"):
            check(other)
    with pytest.raises(ValueError, match="parameter mismatch"):
        check_table_matches_permuted_dual(build_params(4, q.r, q.s), q, other)


def test_standard_racah_route():
    for d, r in [(2, F(1, 2)), (3, F(-1, 4)), (5, F(3, 4))]:
        q = build_racah_params(d, r)
        table = eval_table_4F3(q)
        (aff1_m, aff1_b), (aff2_m, aff2_b) = affine_maps(d, r)
        assert (aff1_m, aff1_b) == (1, d * (d + 1))
        assert (aff2_m, aff2_b) == (4, d * (d + 1))
        for j in range(d + 1):
            node = F(j) * (j - d - F(1, 2))
            assert aff2_m * node + aff2_b == q.theta[j]
            for i in range(d + 1):
                assert standard_racah_eval(d, r, i, F(j)) == table.at(i, j), (d, r, i, j)


def test_aff1_carries_standard_dual_hahn_nodes():
    for d, r in [(2, F(1, 2)), (4, F(-1, 2))]:
        p = build_params(d, r, -r)
        (aff1_m, aff1_b), _ = affine_maps(d, r)
        for j in range(d + 1):
            node = F(j) * (j - 2 * d - 1)  # x(x + gamma + delta + 1) at s = -r
            assert aff1_m * node + aff1_b == p.theta[j]


def test_aff2_at_zero_is_top_barred_node():
    for d, r in [(2, F(1, 2)), (5, F(-1, 4))]:
        q = build_racah_params(d, r)
        _, (aff2_m, aff2_b) = affine_maps(d, r)
        assert aff2_b == d * (d + 1) == q.theta[0]


def racah_orthogonality_oracle(q, table):
    """The summand identity as the O(d^3) summand-by-summand loop against
    the 3F2 dual Hahn table, then the barred orthogonality."""
    d = q.d
    p = build_params(q.d, q.r, q.s)
    U = eval_table_hypergeometric(p)
    sigma = index_map(d)
    for i in range(d + 1):
        for j in range(d + 1):
            for h in range(d + 1):
                if (
                    table.at(i, h) * table.at(j, h) * q.k_star[h]
                    != U.at(i, sigma[h]) * U.at(j, sigma[h]) * p.k_star[sigma[h]]
                ):
                    return False
    return check_orthogonality(q, table)


def summand_conjunction(q, table):
    """The fields of `verify_racah` that carry the summand identity: the
    weights, the values and the orthogonality."""
    p = build_params(q.d, q.r, q.s)
    return (
        check_starred_products(p, q)
        and check_table_matches_permuted_dual(p, q, table)
        and check_racah_orthogonality(q, table)
    )


racah_r = fractions_in(-1, 1, 60).filter(lambda x: -1 < x < 1 and x != 0)
# Positive, so that no perturbation turns a 1 of row 0 into -1.  The cubic
# loop cannot see that sign (at d = 0 every summand is unchanged); the
# conjunction rejects it, because the 3F2 row 0 it is matched with is all 1.
deltas = fractions_in(0, 3, 20).filter(bool)


@settings(deadline=None, max_examples=40)
@given(d=st.integers(0, 10), r=racah_r, data=st.data())
def test_quadratic_summand_form_matches_cubic_loop(d, r, data):
    q = build_racah_params(d, r)
    table = eval_table_4F3(q)
    assert summand_conjunction(q, table) == racah_orthogonality_oracle(q, table) is True

    i, h = data.draw(st.integers(0, d)), data.draw(st.integers(0, d))
    rows = table.values.to_rows()
    rows[i][h] += data.draw(deltas)
    perturbed = ValueTable(RationalMatrix.from_rows(rows))
    assert (
        summand_conjunction(q, perturbed)
        == racah_orthogonality_oracle(q, perturbed)
        is False
    )
    # The orthogonality field rejects both changes on its own: the norm of
    # row 0, or its sum with the changed row, moves by a nonzero amount.
    assert not check_racah_orthogonality(q, perturbed)

    k_star = list(q.k_star)
    k_star[h] += data.draw(deltas)
    reweighted = replace(q, k_star=tuple(k_star))
    assert (
        summand_conjunction(reweighted, table)
        == racah_orthogonality_oracle(reweighted, table)
        is False
    )
    assert not check_racah_orthogonality(reweighted, table)


@settings(deadline=None, max_examples=20)
@given(d=st.integers(1, 10), r=racah_r, data=st.data())
def test_summand_forms_reject_what_orthogonality_alone_accepts(d, r, data):
    """Two changes that keep every orthogonality sum exact but break the
    summand identity: scaling all weights and nu by one factor, and negating
    a row of the table.  The orthogonality field accepts both; the weights
    field rejects the first, the values and recurrence fields the second."""
    q = build_racah_params(d, r)
    p = build_params(q.d, q.r, q.s)
    table = eval_table_4F3(q)
    factor = 1 + data.draw(deltas)
    scaled = replace(q, k_star=tuple(factor * w for w in q.k_star), nu=factor * q.nu)
    assert check_racah_orthogonality(scaled, table)
    assert not check_starred_products(p, scaled)
    assert racah_orthogonality_oracle(scaled, table) is False

    i = data.draw(st.integers(0, d))
    rows = table.values.to_rows()
    rows[i] = [-v for v in rows[i]]
    negated = ValueTable(RationalMatrix.from_rows(rows))
    assert check_racah_orthogonality(q, negated)
    assert not check_table_matches_permuted_dual(p, q, negated)
    assert not check_barred_recurrence(q, negated)
    assert racah_orthogonality_oracle(q, negated) is False


# -- each barred identity in one field: the copied checks as oracles ------------


def racah_orthogonality_with_copies(q, table):
    """`check_racah_orthogonality` with the sub-checks that other fields
    make: row 0 of the 4F3 and recurrence tables all 1, bar_k*_h ==
    k*_sigma(h) and table_i(h) == U_i(sigma(h)), U the dual Hahn recurrence
    table of a second dual Hahn array."""
    d = q.d
    p = build_params(q.d, q.r, q.s)
    U = eval_table_recurrence(p)
    sigma = index_map(d)
    if any(table.at(0, h) != 1 or U.at(0, h) != 1 for h in range(d + 1)):
        return False
    if any(q.k_star[h] != p.k_star[sigma[h]] for h in range(d + 1)):
        return False
    if any(
        table.at(i, h) != U.at(i, sigma[h])
        for i in range(1, d + 1)
        for h in range(d + 1)
    ):
        return False
    return check_orthogonality(q, table)


def barred_matrices_with_copies(p, q):
    """`check_barred_matrices` with the comparisons that other fields make:
    L in the u-basis of both arrays, diag((theta* + lambda)^2) == bar_theta*
    and theta o sigma == bar_theta."""
    d = q.d
    shift = canonical_shift(q)
    if matrix_L_u_basis(p) != matrix_L_u_basis(q):
        return False
    expected_diag = tuple((p.theta_star[i] + shift) ** 2 for i in range(d + 1))
    if expected_diag != q.theta_star:
        return False
    sigma = index_map(d)
    if lstar_shift_square(p, shift).permuted(sigma) != matrix_Lstar_ustar_basis(q):
        return False
    return tuple(p.theta[sigma[i]] for i in range(d + 1)) == q.theta


def starred_products_with_copies(p, q):
    """`check_starred_products` as it was: bar_b*, bar_c* as pairwise
    products of b*, c* (with the parity-split middle cases), which
    `check_barred_matrices` decides, and bar_k* as the sigma re-indexing
    of k*."""
    d, r = q.d, q.r
    half = d // 2
    middle = F(d + 1) * r / 2

    for i in range(d):
        if i <= half - 1:
            expected = p.b_star[2 * i] * p.b_star[2 * i + 1]
        elif i == half:
            expected = middle * (p.b_star[d - 1] if d % 2 == 1 else p.c_star[d])
        else:
            expected = p.c_star[2 * (d - i)] * p.c_star[2 * (d - i) + 1]
        if q.b_star[i] != expected:
            return False

    for i in range(1, d + 1):
        if i <= half:
            expected = p.c_star[2 * i] * p.c_star[2 * i - 1]
        elif i == half + 1:
            expected = middle * (p.c_star[d] if d % 2 == 1 else p.b_star[d - 1])
        else:
            expected = p.b_star[2 * (d - i + 1)] * p.b_star[2 * (d - i) + 1]
        if q.c_star[i] != expected:
            return False

    sigma = index_map(d)
    return all(q.k_star[i] == p.k_star[sigma[i]] for i in range(d + 1))


def barred_suite(p, q, table, starred, orthogonality, matrices,
                 values=check_table_matches_permuted_dual):
    """The eight fields of `verify_racah` on given artifacts, with the
    starred-products, orthogonality, matrix and values checks passed in."""
    return [
        check_index_mapping(p, q),
        check_unbarred_identities(p, q),
        starred(p, q),
        check_varphi(q),
        values(p, q, table),
        orthogonality(q, table),
        check_barred_recurrence(q, table),
        matrices(p, q),
    ]


PERTURBED_FIELDS = (
    "theta", "theta_star", "a", "b", "c", "k_star", "nu", "b_star", "c_star", "a_star",
)
CHANGE_KINDS = PERTURBED_FIELDS + ("table", "scale", "negate")


def changes_of(kind, d):
    """One change to a barred array or its 4F3 table: an entry of a field
    or of the table moved by a nonzero delta, every weight and nu scaled by
    one factor, or a table row negated."""
    return st.tuples(st.just(kind), st.integers(0, d), st.integers(0, d), nonzero)


def perturbed(q, table, changes):
    rows = table.values.to_rows()
    for kind, i, h, delta in changes:
        if kind == "table":
            rows[i][h] += delta
        elif kind == "negate":
            rows[i] = [-v for v in rows[i]]
        elif kind == "scale":
            q = replace(q, k_star=tuple(delta * w for w in q.k_star), nu=delta * q.nu)
        elif kind == "nu":
            q = replace(q, nu=q.nu + delta)
        else:
            values = getattr(q, kind)
            q = replace(q, **{kind: tuple(v + delta * (n == i) for n, v in enumerate(values))})
    return q, ValueTable(RationalMatrix.from_rows(rows))


@pytest.mark.parametrize("kind", (None,) + CHANGE_KINDS)
@settings(deadline=None, max_examples=15)
@given(d=st.integers(0, 10), r=racah_r, data=st.data())
def test_suite_without_copied_checks_decides_as_with_them(kind, d, r, data):
    """The suite with each identity in one field passes exactly when the
    suite with the copied checks does: nothing changed, or one change of
    `kind` plus at most two drawn changes of any kind."""
    q0 = build_racah_params(d, r)
    p = build_params(d, r, -r)
    changes = []
    if kind is not None:
        others = st.sampled_from(CHANGE_KINDS).flatmap(lambda k: changes_of(k, d))
        changes = [data.draw(changes_of(kind, d))] + data.draw(st.lists(others, max_size=2))
    q, table = perturbed(q0, eval_table_4F3(q0), changes)
    new = barred_suite(
        p, q, table, check_starred_products, check_racah_orthogonality, check_barred_matrices
    )
    with_copies = barred_suite(
        p, q, table, starred_products_with_copies, racah_orthogonality_with_copies,
        barred_matrices_with_copies,
    )
    assert all(new) == all(with_copies)
    if kind is None:
        verdict = verify_racah(d, r)
        assert new == with_copies == [getattr(verdict, f.name) for f in fields(verdict)[2:]]
        assert verdict.ok


@settings(deadline=None, max_examples=25)
@given(d=st.integers(1, 10), r=racah_r, data=st.data())
def test_starred_b_and_c_are_decided_by_the_matrix_field(d, r, data):
    """A changed bar_b*_i (i < d) or bar_c*_i (i > 0) is rejected by
    `check_barred_matrices`, as by the pairwise products of
    `starred_products_with_copies`, and accepted by `check_starred_products`;
    a dual array whose a*_{d-1} moved, which changes the square's middle
    factor, is rejected by the latter."""
    q = build_racah_params(d, r)
    p = build_params(d, r, -r)
    assert check_starred_products(p, q) and check_barred_matrices(p, q)

    kind = data.draw(st.sampled_from(("b_star", "c_star")))
    i = data.draw(st.integers(0, d - 1) if kind == "b_star" else st.integers(1, d))
    changed, _ = perturbed(q, eval_table_4F3(q), [(kind, i, 0, data.draw(nonzero))])
    assert not check_barred_matrices(p, changed)
    assert not starred_products_with_copies(p, changed)
    assert check_starred_products(p, changed)

    a_star = list(p.a_star)
    a_star[d - 1] += data.draw(nonzero)
    assert not check_starred_products(replace(p, a_star=tuple(a_star)), q)


def test_verify_racah_builds_one_dual_array_and_no_recurrence_table(monkeypatch):
    """The values field decides table == U o sigma on the 4F3 table's own
    integer columns: one dual array, one barred array and one 4F3 table
    are built, and no recurrence table, no 3F2 table and no single 3F2 sum."""
    calls = Counter()

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(racah, "build_params", counting("build", racah.build_params))
    monkeypatch.setattr(racah, "build_racah_params",
                        counting("barred", racah.build_racah_params))
    monkeypatch.setattr(racah, "eval_table_4F3", counting("4F3 table", racah.eval_table_4F3))
    assert not hasattr(racah, "eval_table_recurrence")
    monkeypatch.setattr(representations, "eval_table_recurrence",
                        counting("recurrence", representations.eval_table_recurrence))
    for module in (racah, representations):
        monkeypatch.setattr(module, "eval_table_hypergeometric",
                            counting("3F2 table", representations.eval_table_hypergeometric))
    for module in (racah, representations, hyper):
        monkeypatch.setattr(module, "hypergeom_terminating",
                            counting("3F2 sum", hyper.hypergeom_terminating))
    for d in (0, 1, 4, 7):
        calls.clear()
        assert verify_racah(d, F(-2, 7)).ok
        assert calls == Counter({"build": 1, "barred": 1, "4F3 table": 1}), d


def test_values_field_refuses_a_dual_array_without_a_recurrence_table():
    """After refusing mismatched arrays and a table of another shape, the
    values field refuses a dual array with some b_i = 0 (i < d), for which
    the recurrence table U does not exist, with a ZeroDivisionError."""
    d, r = 4, F(1, 3)
    q, p = build_racah_params(d, r), build_params(d, r, -r)
    table = eval_table_4F3(q)
    for i in range(d):
        cut = replace(p, b=replaced(p.b, i, -p.b[i]))
        with pytest.raises(ZeroDivisionError):
            check_table_matches_permuted_dual(cut, q, table)
        with pytest.raises(ValueError, match="parameter mismatch"):
            check_table_matches_permuted_dual(replace(cut, d=d + 1), q, table)
        with pytest.raises(ValueError, match="table shape mismatch"):
            check_table_matches_permuted_dual(cut, q, eval_table_4F3(build_racah_params(d - 1, r)))


@pytest.mark.parametrize(
    "check, field",
    [("check_index_mapping", "index_mapping"),
     ("check_unbarred_identities", "unbarred_identities"),
     ("check_starred_products", "starred_products"),
     ("check_varphi", "varphi"),
     ("check_table_matches_permuted_dual", "table4F3_matches_permuted_dual_hahn"),
     ("check_racah_orthogonality", "orthogonality"),
     ("check_barred_recurrence", "barred_recurrence"),
     ("check_barred_matrices", "barred_matrices")],
)
def test_verify_racah_reports_a_failed_check_in_its_field(monkeypatch, check, field):
    monkeypatch.setattr(racah, check, lambda *args: False)
    verdict = verify_racah(3, F(1, 2))
    checks = {f.name: getattr(verdict, f.name) for f in fields(verdict)[2:]}
    assert len(checks) == 8
    assert checks == {name: name != field for name in checks}
    assert not verdict.ok


# -- the values field against U and the 3F2 table, its former references ------


def table_matches_permuted_recurrence(p, q, table):
    """`check_table_matches_permuted_dual` as it was decided before it read
    the table's integer columns: column j of the table against column
    sigma(j) of the recurrence table U, which is formed whole."""
    dual = eval_table_recurrence(p).values
    return all(table.values.column(j) == dual.column(k) for j, k in enumerate(index_map(q.d)))


def table_matches_permuted_3f2(p, q, table):
    """`check_table_matches_permuted_dual` against the 3F2 table of the dual
    Hahn array, as it was decided before it read the recurrence table."""
    dual = eval_table_hypergeometric(p).values
    return all(table.values.column(j) == dual.column(k) for j, k in enumerate(index_map(q.d)))


def verdict_of(p, q, table, values=check_table_matches_permuted_dual):
    """The `RacahVerdict` of the eight checks on given artifacts, the values
    field decided by `values`."""
    return RacahVerdict(q.d, q.r, *barred_suite(
        p, q, table, check_starred_products, check_racah_orthogonality, check_barred_matrices,
        values,
    ))


RACAH_DELTAS = (F(1), F(-1), F(1, 2), F(-1, 3), F(2), F(3, 4))
RACAH_CHANGES = ("as built", "entry moved", "row doubled", "row negated", "theta", "a", "b", "c")


def drawn_racah_case(rng):
    """(change, dual array, barred array, 4F3 table) at d <= 9 and r = P/Q
    with Q <= 40: as built, one table entry moved, one row doubled, one row
    negated, or one theta, a, b or c entry of the dual array moved.  A moved
    b keeps b_i != 0 for i < d, the recurrence table's premise."""
    d = rng.randint(0, 9)
    den = rng.randint(2, 40)
    r = F(rng.choice([n for n in range(1 - den, den) if n]), den)
    q = build_racah_params(d, r)
    p, table = build_params(d, r, -r), eval_table_4F3(q)
    change, i, delta = rng.choice(RACAH_CHANGES), rng.randint(0, d), rng.choice(RACAH_DELTAS)
    if change == "entry moved":
        h = rng.randint(0, d)
        table = with_entry(table, i, h, table.at(i, h) + delta)
    elif change in ("row doubled", "row negated"):
        factor = 2 if change == "row doubled" else -1
        table = with_row(table, i, [factor * u for u in table.values.row(i)])
    elif change != "as built":
        p = replace(p, **{change: replaced(getattr(p, change), i, delta)})
        if not all(p.b[:d]):
            return drawn_racah_case(rng)
    return change, p, q, table


def test_values_field_decides_with_the_verdict_as_the_3f2_reference_did():
    """On drawn tables and dual arrays, the values field equals the
    comparison with the whole recurrence table U, and the eight fields
    conjoin to the same verdict as with the 3F2 table in its place.  Where
    the dual array is as built the two tables are equal, so the field itself
    is the same; a moved theta, a, b or c changes only the recurrence table,
    and `index_mapping` or `unbarred_identities` rejects that array under
    both."""
    rng = random.Random(2508)
    counts = Counter()
    for _ in range(640):
        change, p, q, table = drawn_racah_case(rng)
        new = verdict_of(p, q, table)
        assert new.table4F3_matches_permuted_dual_hahn is table_matches_permuted_recurrence(
            p, q, table), (change, p.d, p.r)
        old = verdict_of(p, q, table, table_matches_permuted_3f2)
        assert new.ok is old.ok, (change, p.d, p.r, new, old)
        if change not in ("theta", "a", "b", "c"):
            assert new == old, (change, p.d, p.r)
        assert new.ok is (change == "as built"), change
        counts[new.ok] += 1
    assert counts[True] >= 40 and counts[True] + counts[False] >= 600, counts


def scaled_rows(table, factors):
    return ValueTable(RationalMatrix.from_rows(
        [[f * u for u in row] for f, row in zip(factors, table.values.to_rows())]
    ))


def _racah_field_changes():
    """At d = 3: (dual array, barred array, table, the fields that must fail)
    for each change, one field failing alone where one change can do it."""
    d, r = 3, F(1, 2)
    q, p = build_racah_params(d, r), build_params(d, r, -r)
    table = eval_table_4F3(q)
    shift = canonical_shift(q)
    theta_star = replaced(p.theta_star, d, F(1))
    halved = [F(1)] + [F(1, 2)] * d
    # b_0 doubled and c_1 halved on both arrays scale rows 1..d of the table
    # by 1/2: the recurrence and the values still match, the norms do not.
    rescaled = [replace(x, b=replaced(x.b, 0, x.b[0]), c=replaced(x.c, 1, -x.c[1] / 2))
                for x in (p, q)]
    return {
        "as built": (p, q, table, set()),
        "theta*_1 moved in the dual array":
            (replace(p, theta_star=replaced(p.theta_star, 1, F(1))), q, table,
             {"index_mapping"}),
        "nu moved in the dual array":
            (replace(p, nu=p.nu + 1), q, table, {"unbarred_identities"}),
        "the last barred weight moved in the dual array":
            (replace(p, k_star=replaced(p.k_star, index_map(d)[d], F(1))), q, table,
             {"starred_products"}),
        "theta*_d moved in both":
            (replace(p, theta_star=theta_star),
             replace(q, theta_star=tuple((t + shift) ** 2 for t in theta_star)), table,
             {"varphi"}),
        "table doubled, nu times 4 in both":
            (replace(p, nu=4 * p.nu), replace(q, nu=4 * q.nu), scaled_rows(table, [2] * (d + 1)),
             {"table4F3_matches_permuted_dual_hahn"}),
        "nu doubled in both":
            (replace(p, nu=2 * p.nu), replace(q, nu=2 * q.nu), table, {"orthogonality"}),
        "b_0 doubled, c_1 halved in both":
            (*rescaled, scaled_rows(table, halved), {"varphi", "orthogonality"}),
        "a_d moved in both":
            (replace(p, a=replaced(p.a, d, F(1))), replace(q, a=replaced(q.a, d, F(1))), table,
             {"barred_recurrence"}),
        # b*_0 c*_1 is unchanged, so is the square's diagonal; its (1, 0)
        # entry b*_0 (2 lambda + a*_0 + a*_1) is not.
        "b*_0 doubled, c*_1 halved in the dual array":
            (replace(p, b_star=replaced(p.b_star, 0, p.b_star[0]),
                     c_star=replaced(p.c_star, 1, -p.c_star[1] / 2)), q, table,
             {"barred_matrices"}),
    }


RACAH_FIELD_CHANGES = _racah_field_changes()


@pytest.mark.parametrize("change", RACAH_FIELD_CHANGES)
def test_each_racah_field_is_decided_by_its_own_check(change):
    p, q, table, failing = RACAH_FIELD_CHANGES[change]
    verdict = verdict_of(p, q, table)
    assert {f.name for f in fields(verdict)[2:] if not getattr(verdict, f.name)} == failing
    assert verdict.ok is (not failing)


# -- hoisted 4F3 parameters and integer kernels against the Fraction loops ------


def table_4f3_oracle(q):
    """`eval_table_4F3` as it was: every parameter built as new Fractions for
    every entry."""
    d, r = q.d, q.r
    return ValueTable(RationalMatrix.from_rows([
        [hypergeom_terminating(
            [F(-i), i - d + r, F(-j), j - d - F(1, 2)],
            [F(-d), (r - d) / 2, (r - d + 1) / 2],
            terms=i,
        ) for j in range(d + 1)]
        for i in range(d + 1)
    ]))


def barred_recurrence_oracle(q, table):
    """The Fraction loop that `check_barred_recurrence` replaced."""
    d = q.d
    for i in range(d + 1):
        for j in range(d + 1):
            rhs = q.a[i] * table.at(i, j)
            if i < d:
                rhs += q.b[i] * table.at(i + 1, j)
            if i > 0:
                rhs += q.c[i] * table.at(i - 1, j)
            if q.theta[j] * table.at(i, j) != rhs:
                return False
    return True


def varphi_oracle(q):
    """The Fraction products that `check_varphi` replaced."""
    for i in range(1, q.d + 1):
        num = F(1)
        for l in range(i):
            num *= q.theta_star[i] - q.theta_star[l]
        den = F(1)
        for l in range(i - 1):
            den *= q.theta_star[i - 1] - q.theta_star[l]
        if varphi(q, i) != q.b[i - 1] * num / den:
            return False
    return True


def barred_cases(test):
    """Barred arrays at d <= 16 and r up to two-digit denominators, with
    d = 0, 1 and 2 always run; `at` picks the perturbed entry modulo d + 1."""
    r = fractions_in(-1, 1, 99).filter(lambda x: -1 < x < 1 and x != 0)
    test = built_when_run(test)
    for d, r0 in [(0, F(3, 7)), (1, F(-5, 11)), (2, F(13, 17))]:
        test = example(build=partial(build_racah_params, d, r0), at=(d, 0), delta=F(1, 2))(test)
    at = st.tuples(st.integers(0, 16), st.integers(0, 16))
    build = st.builds(partial, st.just(build_racah_params), st.integers(0, 16), r)
    return settings(deadline=None, max_examples=30)(
        given(build=build, at=at, delta=nonzero)(test)
    )


@barred_cases
def test_hoisted_4f3_parameters_match_per_entry_fractions(q, at, delta):
    table = eval_table_4F3(q)
    assert table.values == table_4f3_oracle(q).values
    assert all(type(v) is F for v in table.values.entries)
    # r enters a row parameter and two denominator parameters; a changed r
    # (kept non-integer, so no denominator vanishes) changes row 1 on both sides.
    moved = replace(q, r=q.r + delta / 101)
    assert eval_table_4F3(moved).values == table_4f3_oracle(moved).values
    assert (eval_table_4F3(moved).values == table.values) is (q.d == 0)


@barred_cases
def test_integer_barred_recurrence_matches_fraction_loop(q, at, delta):
    table = eval_table_4F3(q)
    assert check_barred_recurrence(q, table) == barred_recurrence_oracle(q, table) is True
    i, j = (x % (q.d + 1) for x in at)
    # At d = 0 the identity reads bar_theta_0 u = bar_a_0 u with
    # bar_a_0 == bar_theta_0, so only a coefficient breaks it.
    if q.d >= 1:
        perturbed = with_entry(table, i, j, table.at(i, j) + delta)
        assert (
            check_barred_recurrence(q, perturbed)
            == barred_recurrence_oracle(q, perturbed)
            is False
        )
    moved = replace(q, a=tuple(v + delta * (h == i) for h, v in enumerate(q.a)))
    assert check_barred_recurrence(moved, table) == barred_recurrence_oracle(moved, table) is False


@barred_cases
def test_integer_varphi_matches_fraction_products(q, at, delta):
    assert check_varphi(q) == varphi_oracle(q) is True
    # bar_b_{i-1} enters the quotient for bar_varphi_i as a factor; with
    # d = 0 there is no quotient to break.
    if q.d >= 1:
        i = at[0] % q.d
        moved = replace(q, b=tuple(v + delta * (h == i) for h, v in enumerate(q.b)))
        assert check_varphi(moved) == varphi_oracle(moved) is False


def test_barred_recurrence_worked_instance():
    q = build_racah_params(2, F(1, 2))
    table = eval_table_4F3(q)
    # i = 1 at bar_theta_1 = 0: 0 == bar_b_1 u_2 + bar_a_1 u_1 + bar_c_1 u_0
    assert q.b[1] * table.at(2, 1) + q.a[1] * table.at(1, 1) + q.c[1] * table.at(0, 1) == 0
    assert check_barred_recurrence(q, table)
    assert not check_barred_recurrence(q, with_entry(table, 2, 1, F(4)))


def racah_params_oracle(d, r):
    """`build_racah_params` as it was: every entry built from Fraction closed
    forms."""
    theta = tuple(F(d - 2 * i) * (d - 2 * i + 1) for i in range(d + 1))
    theta_star = tuple((F(i) + (r - d) / 2) ** 2 for i in range(d + 1))
    b = tuple(F(d - i) * (d - i - r) for i in range(d)) + (F(0),)
    c = (F(0),) + tuple(F(i) * (i + r) for i in range(1, d + 1))
    b_star = tuple(
        F(d - i) * (2 * (d - i) + 1) * (d - 2 * i - r - 1) * (d - 2 * i - r)
        / (2 * (2 * d - 4 * i - 1) * (2 * d - 4 * i + 1))
        for i in range(d)
    ) + (F(0),)
    c_star = (F(0),) + tuple(
        F(i) * (2 * i - 1) * (d - 2 * i + r + 1) * (d - 2 * i + r + 2)
        / (2 * (2 * d - 4 * i + 1) * (2 * d - 4 * i + 3))
        for i in range(1, d + 1)
    )
    return complete_fractions(d, r, -r, theta, theta_star, b, c, b_star, c_star)


@barred_cases
def test_integer_entries_match_fraction_closed_forms(q, at, delta):
    assert build_racah_params(q.d, q.r) == racah_params_oracle(q.d, q.r) == q
    assert all(
        type(v) is F
        for v in (*q.theta, *q.theta_star, *q.b, *q.c, *q.b_star, *q.c_star)
    )
