import json
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leonard_lab.cli import main
from leonard_lab.hyper import pochhammer
from leonard_lab.params import (
    ParameterDomainError,
    ParameterInvariantError,
    build_astar_sums,
    build_params,
    check_closed_forms,
    parameter_array,
)
from leonard_lab.racah import build_racah_params
from leonard_lab.representations import (
    check_orthogonality,
    eval_table_hypergeometric,
    eval_table_recurrence,
)

# compact grid for unit tests; the acceptance suite runs the full one
GRID_RS = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]
GRID_D = range(0, 6)


def test_build_d1_example():
    p = build_params(1, F(1, 2), F(-1, 2))
    assert p.theta == (2, 0)
    assert p.b == (F(1, 2), 0)
    assert p.c == (0, F(3, 2))
    assert p.a == (F(3, 2), F(1, 2))


def test_build_d2_example_full_array():
    p = build_params(2, F(1, 2), F(-1, 2))
    assert p.theta == (6, 2, 0)
    assert p.theta_star == (0, 1, 2)
    assert p.b == (3, F(1, 2), 0)
    assert p.c == (0, F(3, 2), 5)
    assert p.a == (3, 4, 1)
    assert p.k == (1, 2, F(1, 5))
    assert p.nu == F(16, 5)
    assert p.b_star == (F(-3, 4), F(-1, 3), 0)
    assert p.c_star == (0, F(-5, 12), F(-3, 2))
    assert p.a_star == (F(3, 4), F(3, 4), F(3, 2))
    assert p.k_star == (1, F(9, 5), F(2, 5))


def test_build_d0_trivial():
    p = build_params(0, F(1, 4), F(1, 4))
    assert p.theta == (0,)
    assert p.k == (1,)
    assert p.nu == 1
    assert p.k_star == (1,)
    assert p.a == (0,)
    assert p.a_star == (0,)


@pytest.mark.parametrize("r,s", [(F(-2), F(0)), (F(0), F(-1)), (F(-5, 4), F(1, 2))])
def test_domain_errors(r, s):
    with pytest.raises(ParameterDomainError):
        build_params(2, r, s)


def test_d_must_be_natural():
    with pytest.raises(ParameterDomainError):
        build_params(-1, F(1, 2), F(1, 2))


def test_closed_forms_examples():
    assert check_closed_forms(build_params(2, F(1, 2), F(-1, 2)))
    assert check_closed_forms(build_params(0, F(3, 4), F(2)))
    assert check_closed_forms(build_params(5, F(3, 4), F(1, 4)))


def test_closed_forms_on_grid():
    for d, r, s in product(GRID_D, GRID_RS, GRID_RS):
        assert check_closed_forms(build_params(d, r, s)), (d, r, s)


@settings(deadline=None, max_examples=40)
@given(
    d=st.integers(0, 8),
    r=st.fractions(min_value=-1, max_value=3, max_denominator=60).filter(lambda x: x > -1),
    s=st.fractions(min_value=-1, max_value=3, max_denominator=60).filter(lambda x: x > -1),
)
def test_dual_hahn_identities_for_drawn_rationals(d, r, s):
    p = build_params(d, r, s)
    assert check_closed_forms(p)
    table = eval_table_hypergeometric(p)
    assert table.values == eval_table_recurrence(p).values
    assert check_orthogonality(p, table)


def _pochhammer_b_star(d, r, s):
    """b*_i as the Pochhammer quotient the telescoped form replaced."""
    return tuple(
        (d - i) * (i - d - s) * pochhammer(2 * (d - i) + r + s + 2, i)
        / pochhammer(2 * (d - i) + r + s, i + 1)
        for i in range(d)
    ) + (F(0),)


def _pochhammer_c_star(d, r, s):
    """c*_i as the Pochhammer quotient the telescoped form replaced."""
    return (F(0),) + tuple(
        i * (i - d - r - 1) * pochhammer(d - i + r + s + 1, d - i)
        / pochhammer(d - i + r + s + 2, d - i + 1)
        for i in range(1, d + 1)
    )


_OPEN_RATIONALS = st.fractions(min_value=-1, max_value=3, max_denominator=60).filter(
    lambda x: x > -1
)


_R_PLUS_S_MINUS_ONE = st.fractions(min_value=-1, max_value=0, max_denominator=60).filter(
    lambda x: -1 < x < 0
).map(lambda r: (r, -1 - r))


@settings(deadline=None, max_examples=150)
@given(d=st.integers(0, 16), rs=st.one_of(st.tuples(_OPEN_RATIONALS, _OPEN_RATIONALS),
                                         _R_PLUS_S_MINUS_ONE))
@example(d=0, rs=(F(-1, 2), F(-1, 2)))
@example(d=1, rs=(F(-1, 2), F(-1, 2)))
@example(d=5, rs=(F(-1, 3), F(-2, 3)))
def test_telescoped_starred_coefficients_equal_pochhammer_quotients(d, rs):
    r, s = rs
    p = build_params(d, r, s)
    assert p.b_star == _pochhammer_b_star(d, r, s)
    assert p.c_star == _pochhammer_c_star(d, r, s)


def _inputs(p):
    """The arguments `parameter_array` completes p from."""
    return dict(d=p.d, r=p.r, s=p.s, theta=p.theta, theta_star=p.theta_star,
                b=p.b, c=p.c, b_star=p.b_star, c_star=p.c_star)


_BUILDERS = {
    "dual": lambda: build_params(3, F(1, 2), F(-1, 2)),
    "barred": lambda: build_racah_params(3, F(1, 2)),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
def test_both_arrays_are_one_type_rebuilt_by_parameter_array(build):
    p = build()
    assert type(p) is type(build_params(3, F(1, 2), F(-1, 2)))
    assert parameter_array(**_inputs(p)) == p


_CORRUPTIONS = {
    "zero interior c": lambda f: {**f, "c": f["c"][:2] + (F(0),) + f["c"][3:]},
    "zero interior b*": lambda f: {**f, "b_star": (F(0),) + f["b_star"][1:]},
    "nonzero boundary b_d": lambda f: {**f, "b": f["b"][:-1] + (F(1),)},
    "repeated theta": lambda f: {**f, "theta": f["theta"][1:2] + f["theta"][1:]},
    "negative weight": lambda f: {**f, "b": (-f["b"][0],) + f["b"][1:]},
}


@pytest.mark.parametrize("corrupt", _CORRUPTIONS.values(), ids=_CORRUPTIONS)
@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
def test_parameter_array_rejects_corrupted_input(build, corrupt):
    with pytest.raises(ParameterInvariantError):
        parameter_array(**corrupt(_inputs(build())))


def test_astar_sums_d1_is_one():
    for r, s in [(F(1, 2), F(-1, 2)), (F(1, 4), F(3, 4)), (F(2), F(2))]:
        assert build_astar_sums(build_params(1, r, s)) == [1]


def test_astar_sums_d2_example():
    p = build_params(2, F(1, 2), F(-1, 2))
    assert p.a_star == (F(3, 4), F(3, 4), F(3, 2))
    assert build_astar_sums(p) == [F(3, 2), F(9, 4)]


def test_astar_sums_requires_d_at_least_one():
    with pytest.raises(ValueError):
        build_astar_sums(build_params(0, F(1, 2), F(1, 2)))


def test_astar_sums_match_direct_sums_on_grid():
    for d, r, s in product(range(1, 6), GRID_RS, GRID_RS):
        p = build_params(d, r, s)
        direct = [p.a_star[i] + p.a_star[i + 1] for i in range(d)]
        assert build_astar_sums(p) == direct, (d, r, s)


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("r", [F(-1, 2), F(1, 4), F(3, 4)])
def test_astar_closed_form_when_r_plus_s_zero(d, r):
    p = build_params(d, r, -r)
    assert all(p.a_star[i] == (d - r) / 2 for i in range(d))
    assert p.a_star[d] == d * (r + 1) / 2


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("r", [F(-1, 2), F(1, 4), F(2)])
def test_astar_closed_form_when_r_minus_s_zero(d, r):
    p = build_params(d, r, r)
    assert all(v == F(d, 2) for v in p.a_star)


def test_last_sum_equality_iff_r_equals_s():
    for d in range(2, 6):
        for r, s in product(GRID_RS, GRID_RS):
            p = build_params(d, r, s)
            sums = build_astar_sums(p)
            assert (sums[d - 2] == sums[d - 1]) == (r == s), (d, r, s)


def test_interior_sum_equality_iff_r_pm_s_zero():
    for d in range(3, 7):
        for r, s in product(GRID_RS, GRID_RS):
            p = build_params(d, r, s)
            sums = build_astar_sums(p)
            expected = r == s or r == -s
            for i in range(d - 2):
                assert (sums[i] == sums[i + 1]) == expected, (d, r, s, i)


def test_json_dump_keys_and_values(capsys):
    assert main(["params", "--d", "2", "--r", "1/2", "--s", "-1/2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [
        "d", "r", "s", "theta", "thetaStar", "b", "c", "a", "k", "nu",
        "bStar", "cStar", "aStar", "kStar", "closedFormsMatch",
    ]
    assert payload["nu"] == "16/5"
    assert payload["cStar"] == ["0", "-5/12", "-3/2"]
