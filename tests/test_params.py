import json
import math
from dataclasses import replace
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leonard_lab.cli import main
from leonard_lab.hyper import exact_rational, format_rational
from leonard_lab.params import (
    ParameterArray,
    ParameterDomainError,
    ParameterInvariantError,
    _check_invariants,
    _dual_hahn_pairs,
    build_astar_sums,
    build_params,
    check_closed_forms,
    check_domain,
    parameter_array,
)
from leonard_lab.racah import build_racah_params
from leonard_lab.representations import (
    check_orthogonality,
    eval_table_hypergeometric,
    eval_table_recurrence,
    verify_dual_hahn,
)

@st.composite
def fractions_in(draw, low, high, max_denominator, *, open_low=False, open_high=False):
    """A rational p/q, q <= max_denominator, between the integers low and
    high, each end included unless it is open, drawn as two integers:
    `st.fractions` costs most of a cheap example."""
    q = draw(st.integers(1, max_denominator))
    return F(draw(st.integers(low * q + int(open_low), high * q - int(open_high))), q)


# The eight-value (r, s) grid, swept here and, with larger d, by the
# acceptance suite; the other test modules import it from here.
GRID_RS = [F(-3, 4), F(-1, 2), F(-1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(2)]
# A nonzero perturbation of one entry, shared by the perturbation tests.
nonzero = fractions_in(-3, 3, 20).filter(bool)
GRID_D = range(0, 6)


def built_when_run(test):
    """`test(p, at, delta)` as a test of (build, at, delta) that calls
    build() for p as it runs: a builder that breaks then fails each example,
    not the import of the test's module."""
    def run(build, at, delta):
        test(build(), at, delta)
    for name in ("__module__", "__name__", "__qualname__", "__doc__"):
        setattr(run, name, getattr(test, name))
    return run


def pochhammer(x, i):
    """Rising factorial (x)_i = x (x+1) ... (x+i-1) as a Fraction loop."""
    acc = F(1)
    for step in range(i):
        acc *= F(x) + step
    return acc


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
    # A bool is no size, though True == 1 and False == 0.
    for d in (True, False):
        with pytest.raises(ParameterDomainError, match="d must be a natural number"):
            build_params(d, 1, 1)
        with pytest.raises(ParameterDomainError, match="d must be a natural number"):
            verify_dual_hahn(d, 1, 1)


def _fraction_check_domain(d, r, s):
    """`check_domain` by `Fraction` comparison, the oracle of its
    integer-pair test."""
    if not isinstance(d, int) or d < 0:
        raise ParameterDomainError(f"d must be a natural number, got {d!r}")
    r = exact_rational("r", r)
    s = exact_rational("s", s)
    if r <= -1:
        raise ParameterDomainError(f"r must exceed -1, got {format_rational(r)}")
    if s <= -1:
        raise ParameterDomainError(f"s must exceed -1, got {format_rational(s)}")
    return r, s


def _domain_outcome(check, d, r, s):
    try:
        return check(d, r, s)
    except ParameterDomainError as exc:
        return str(exc)


_NEAR_MINUS_ONE = st.builds(
    lambda k, sign: -1 + F(sign, 10**k), st.integers(0, 40), st.sampled_from((-1, 1)))
_HUGE = st.builds(F, st.integers(-10**40, 10**40), st.integers(1, 10**40))
_DOMAIN_VALUES = st.one_of(
    st.just(F(-1)), _NEAR_MINUS_ONE, _HUGE, fractions_in(-3, 3, 12)
).flatmap(lambda v: st.sampled_from(
    [v, str(v), f"{v.numerator}/{v.denominator}"] + ([v.numerator] if v.denominator == 1 else [])))


@settings(deadline=None, max_examples=300)
@given(d=st.integers(-1, 4), r=_DOMAIN_VALUES, s=_DOMAIN_VALUES)
@example(d=2, r=-1, s=0)
@example(d=2, r="0", s="-1")
@example(d=2, r=F(-9, 10), s=F(-11, 10))
def test_check_domain_decides_like_the_fraction_comparison(d, r, s):
    # The outcome, the message and its precedence (d, then r, then s).
    assert _domain_outcome(check_domain, d, r, s) == _domain_outcome(
        _fraction_check_domain, d, r, s)


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
    r=fractions_in(-1, 3, 60).filter(lambda x: x > -1),
    s=fractions_in(-1, 3, 60).filter(lambda x: x > -1),
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


_OPEN_RATIONALS = fractions_in(-1, 3, 60).filter(lambda x: x > -1)


_R_PLUS_S_MINUS_ONE = fractions_in(-1, 0, 60).filter(lambda x: -1 < x < 0).map(
    lambda r: (r, -1 - r))


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
    """The arguments `parameter_array` completes p from, as Fractions."""
    return dict(d=p.d, r=p.r, s=p.s, theta=p.theta, theta_star=p.theta_star,
                b=p.b, c=p.c, b_star=p.b_star, c_star=p.c_star)


def complete_fractions(d, r, s, theta, theta_star, b, c, b_star, c_star):
    """`parameter_array` on Fraction entries, each handed over as its
    integer pair."""
    return parameter_array(d, r, s, *(
        tuple(v.as_integer_ratio() for v in values)
        for values in (theta, theta_star, b, c, b_star, c_star)
    ))


_BUILDERS = {
    "dual": lambda: build_params(3, F(1, 2), F(-1, 2)),
    "barred": lambda: build_racah_params(3, F(1, 2)),
}


@pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
def test_both_arrays_are_one_type_rebuilt_by_parameter_array(build):
    p = build()
    assert type(p) is type(build_params(3, F(1, 2), F(-1, 2)))
    assert complete_fractions(**_inputs(p)) == p


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
        complete_fractions(**corrupt(_inputs(build())))


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


# -- integer completion and closed forms against the Fraction routes ----------


def parameter_array_oracle(d, r, s, theta, theta_star, b, c, b_star, c_star):
    """`parameter_array` as it was: the same checks, then a, a*, k, k* and nu
    with two Fraction operations per entry."""
    if any(b[i] == 0 for i in range(d)) or any(c[i] == 0 for i in range(1, d + 1)):
        raise ParameterInvariantError("interior b_i, c_i must be nonzero")
    if any(b_star[i] == 0 for i in range(d)) or any(c_star[i] == 0 for i in range(1, d + 1)):
        raise ParameterInvariantError("interior b*_i, c*_i must be nonzero")
    if b[d] != 0 or c[0] != 0 or b_star[d] != 0 or c_star[0] != 0:
        raise ParameterInvariantError("boundary entries b_d, c_0, b*_d, c*_0 must be zero")
    if len(set(theta)) != d + 1:
        raise ParameterInvariantError("eigenvalues theta_i are not distinct")

    def cumulative(b, c):
        out = [F(1)]
        for i in range(1, len(c)):
            out.append(out[-1] * b[i - 1] / c[i])
        return tuple(out)

    k = cumulative(b, c)
    k_star = cumulative(b_star, c_star)
    nu = F(1)
    for j in range(1, d + 1):
        nu *= (theta[0] - theta[j]) / c[j]
    if any(v <= 0 for v in k) or any(v <= 0 for v in k_star) or nu <= 0:
        raise ParameterInvariantError("weights k_i, k*_i and nu must be positive")
    return ParameterArray(
        d=d, r=r, s=s, theta=theta, theta_star=theta_star, b=b, c=c,
        a=tuple(theta[0] - b[i] - c[i] for i in range(d + 1)), k=k, nu=nu,
        b_star=b_star, c_star=c_star,
        a_star=tuple(theta_star[0] - b_star[i] - c_star[i] for i in range(d + 1)),
        k_star=k_star,
    )


def closed_form_k(p, i):
    """k_i = C(d, i) (d-i+s+1)_i / (r+1)_i."""
    return math.comb(p.d, i) * pochhammer(p.d - i + p.s + 1, i) / pochhammer(p.r + 1, i)


def closed_form_k_star(p, i):
    """k*_i = C(d, i) (-d-s)_i (d+r+s+1)_d / [(-d-r)_i (2d-2i+r+s+2)_i (d-i+r+s+1)_{d-i}]."""
    d, r, s = p.d, p.r, p.s
    num = math.comb(d, i) * pochhammer(-d - s, i) * pochhammer(d + r + s + 1, d)
    den = (
        pochhammer(-d - r, i)
        * pochhammer(2 * (d - i) + r + s + 2, i)
        * pochhammer(d - i + r + s + 1, d - i)
    )
    return num / den


def closed_form_nu(p):
    """nu = (d+r+s+1)_d / (r+1)_d."""
    return pochhammer(p.d + p.r + p.s + 1, p.d) / pochhammer(p.r + 1, p.d)


def closed_forms_oracle(p):
    """`check_closed_forms` as it was: the Fraction Pochhammer quotients."""
    if closed_form_nu(p) != p.nu:
        return False
    for i in range(p.d + 1):
        if closed_form_k(p, i) != p.k[i]:
            return False
        if closed_form_k_star(p, i) != p.k_star[i]:
            return False
    return True


# r in (-1, 1) \ {0} serves both builders; the barred array ignores s.
_BOTH_R = fractions_in(-1, 1, 99, open_low=True).filter(lambda x: -1 < x < 1 and x != 0)
_DUAL_S = fractions_in(-1, 3, 99, open_low=True).filter(lambda x: x > -1)


def _array(kind, d, r, s):
    return build_params(d, r, s) if kind == "dual" else build_racah_params(d, r)


def array_cases(max_examples=60):
    """Both arrays at d <= 16 and (r, s) up to two-digit denominators, with
    d = 0, 1 and 2 always run for each; `at` picks an index modulo d + 1."""

    def decorate(test):
        for d, kind in product((0, 1, 2), ("dual", "barred")):
            test = example(kind=kind, d=d, r=F(3, 7), s=F(-5, 11), at=d, delta=F(1, 2))(test)
        return settings(deadline=None, max_examples=max_examples)(given(
            kind=st.sampled_from(("dual", "barred")), d=st.integers(0, 16), r=_BOTH_R,
            s=_DUAL_S, at=st.integers(0, 16), delta=nonzero,
        )(test))

    return decorate


def _outcome(complete, inputs):
    """The completed array, or the invariant error's message; any other
    exception (a ZeroDivisionError, say) fails the test."""
    try:
        return complete(**inputs)
    except ParameterInvariantError as exc:
        return ("ParameterInvariantError", str(exc))


@array_cases()
def test_integer_completion_matches_fraction_loop(kind, d, r, s, at, delta):
    p = _array(kind, d, r, s)
    inputs = _inputs(p)
    assert complete_fractions(**inputs) == parameter_array_oracle(**inputs) == p
    assert all(type(v) is F for v in (*p.a, *p.a_star, *p.k, *p.k_star, p.nu))


_REPLACEMENTS = {
    "zero": lambda values, i, delta: F(0),
    "negated": lambda values, i, delta: -values[i],
    "mirrored": lambda values, i, delta: values[-1 - i],
    "shifted": lambda values, i, delta: values[i] + delta,
}


@pytest.mark.parametrize("replacement", _REPLACEMENTS.values(), ids=_REPLACEMENTS)
@pytest.mark.parametrize("field", ("theta", "theta_star", "b", "c", "b_star", "c_star"))
@array_cases(max_examples=15)
def test_corrupted_input_is_rejected_like_the_fraction_loop(
    field, replacement, kind, d, r, s, at, delta
):
    """Each entry in turn replaced by zero, its negation, the mirrored entry
    of the same list, or a shifted value: the completion equals the oracle's
    or both raise the same ParameterInvariantError, and nothing divides by
    zero."""
    inputs = _inputs(_array(kind, d, r, s))
    for i in range(d + 1):
        values = list(inputs[field])
        values[i] = replacement(values, i, delta)
        corrupted = {**inputs, field: tuple(values)}
        assert _outcome(complete_fractions, corrupted) == _outcome(
            parameter_array_oracle, corrupted)


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(("dual", "barred")), d=st.integers(0, 16), r=_BOTH_R, s=_DUAL_S,
       data=st.data())
def test_parameter_array_reads_pairs_reduced_or_not(kind, d, r, s, data):
    """Each pair of a built array multiplied through by its own positive
    factor completes to the same array."""
    p = _array(kind, d, r, s)
    scaled = {}
    for name in ("theta", "theta_star", "b", "c", "b_star", "c_star"):
        factors = data.draw(st.lists(st.integers(1, 10**6), min_size=d + 1, max_size=d + 1))
        scaled[name] = [(n * m, q * m) for (n, q), m in
                        zip(map(F.as_integer_ratio, getattr(p, name)), factors)]
    assert parameter_array(p.d, p.r, p.s, **scaled) == p


def test_distinct_theta_is_decided_on_values_not_numerators():
    inputs = {**_inputs(build_params(2, F(1, 2), F(-1, 2))), "theta": (F(1, 2), F(1, 3), F(1, 5))}
    assert complete_fractions(**inputs) == parameter_array_oracle(**inputs)


@array_cases()
def test_integer_closed_forms_match_pochhammer_quotients(kind, d, r, s, at, delta):
    p = _array(kind, d, r, s)
    assert check_closed_forms(p) == closed_forms_oracle(p)
    if kind == "dual":
        assert check_closed_forms(p) is True
        i = at % (d + 1)
        for moved in (
            replace(p, k=tuple(v + delta * (h == i) for h, v in enumerate(p.k))),
            replace(p, k_star=tuple(v + delta * (h == i) for h, v in enumerate(p.k_star))),
            replace(p, nu=p.nu + delta),
        ):
            assert check_closed_forms(moved) == closed_forms_oracle(moved) is False


def test_closed_forms_raise_on_a_vanishing_denominator():
    # r = -1 puts a zero factor into (r+1)_d, the denominator of nu.
    p = replace(build_params(3, F(1, 2), F(1, 3)), r=F(-1))
    with pytest.raises(ZeroDivisionError):
        closed_forms_oracle(p)
    with pytest.raises(ZeroDivisionError):
        check_closed_forms(p)


def multi_pass_check_invariants(d, theta, b, c, b_star, c_star) -> None:
    """`params._check_invariants` as it was: one pass per invariant over the
    integer pairs, each raising as soon as it fails, kept as the oracle of
    the one-pass test."""
    # The zero pattern is checked first: the weights divide by c_i and c*_i.
    if not (all(n for n, _ in b[:d]) and all(n for n, _ in c[1:])):
        raise ParameterInvariantError("interior b_i, c_i must be nonzero")
    if not (all(n for n, _ in b_star[:d]) and all(n for n, _ in c_star[1:])):
        raise ParameterInvariantError("interior b*_i, c*_i must be nonzero")
    if b[d][0] or c[0][0] or b_star[d][0] or c_star[0][0]:
        raise ParameterInvariantError("boundary entries b_d, c_0, b*_d, c*_0 must be zero")
    # Equal rationals with positive denominators have equal reduced pairs.
    if len({(t // g, e // g) for t, e in theta for g in (math.gcd(t, e),)}) != d + 1:
        raise ParameterInvariantError("eigenvalues theta_i are not distinct")
    t0, e0 = theta[0]
    if (
        any((bn > 0) != (cn > 0) for (bn, _), (cn, _) in zip(b, c[1:]))
        or any((bn > 0) != (cn > 0) for (bn, _), (cn, _) in zip(b_star, c_star[1:]))
        or sum((t0 * e > t * e0) != (f > 0) for (t, e), (f, _) in zip(theta[1:], c[1:])) % 2
    ):
        raise ParameterInvariantError("weights k_i, k*_i and nu must be positive")


def _raised(check, *args):
    """The class and message of what `check(*args)` raises, or None."""
    try:
        check(*args)
    except Exception as exc:  # any exception, to compare the two versions
        return type(exc), str(exc)
    return None


_PAIR_FIELDS = ("theta", "b", "c", "b_star", "c_star")


def _checked_pairs(source, d, r, s):
    """The five lists `_check_invariants` reads: the dual Hahn kernel's own
    pairs, unreduced over one denominator, or a built array's reduced
    pairs, whose denominators differ."""
    if source == "kernel":
        return [list(pairs) for pairs in _dual_hahn_pairs(d, r, s)]
    p = _array(source, d, r, s)
    return [[v.as_integer_ratio() for v in getattr(p, name)] for name in _PAIR_FIELDS]


def _perturb_one_entry(data, lists, d):
    """Replace one drawn entry by zero, its negation, a copy of an entry of
    the same list multiplied through by a drawn factor, or its value
    shifted by a nonzero rational."""
    pairs = lists[data.draw(st.integers(0, 4))]
    at = data.draw(st.integers(0, d))
    n, q = pairs[at]
    how = data.draw(st.sampled_from(("zero", "negated", "copied", "shifted")))
    if how == "zero":
        pairs[at] = (0, q)
    elif how == "negated":
        pairs[at] = (-n, q)
    elif how == "copied":
        m, e = pairs[data.draw(st.integers(0, d))]
        k = data.draw(st.integers(1, 3))
        pairs[at] = (m * k, e * k)
    else:
        delta = data.draw(nonzero)
        pairs[at] = (n * delta.denominator + delta.numerator * q, q * delta.denominator)


@settings(deadline=None, max_examples=250)
@given(source=st.sampled_from(("kernel", "dual", "barred")), d=st.integers(0, 12),
       r=fractions_in(-1, 1, 99, open_low=True, open_high=True).filter(bool),
       s=fractions_in(-1, 3, 99, open_low=True, open_high=True), scaled=st.booleans(),
       perturbed=st.integers(0, 2), data=st.data())
def test_one_pass_invariants_raise_like_the_multi_pass_oracle(
    source, d, r, s, scaled, perturbed, data
):
    """Valid lists, and lists with one or two entries perturbed: the one-pass
    test raises the class and message of the multi-pass one, or neither
    raises.  Two perturbations can break two invariants at once, which pins
    the order in which the failures are reported."""
    lists = _checked_pairs(source, d, r, s)
    if scaled:  # each pair multiplied through by its own positive factor
        factors = iter(data.draw(st.lists(st.integers(1, 50), min_size=5 * (d + 1),
                                          max_size=5 * (d + 1))))
        lists = [[(n * m, q * m) for (n, q), m in zip(pairs, factors)] for pairs in lists]
    for _ in range(perturbed):
        _perturb_one_entry(data, lists, d)
    expected = _raised(multi_pass_check_invariants, d, *lists)
    assert _raised(_check_invariants, d, *lists) == expected
    if not perturbed:
        assert expected is None
