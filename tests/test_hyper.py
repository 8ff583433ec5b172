from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_lab import racah, representations
from leonard_lab.hyper import (
    RationalFormatError,
    SeriesDivisionError,
    format_rational,
    hypergeom_table,
    hypergeom_terminating,
    parse_rational,
)
from leonard_lab.params import build_params
from leonard_lab.racah import build_racah_params, eval_table_4F3
from leonard_lab.representations import eval_table_hypergeometric
from test_params import fractions_in

rationals = fractions_in(-6, 6, 12)


def hypergeom_oracle(numerators, denominators, terms):
    """The term-by-term Fraction loop that `hypergeom_terminating` replaced."""
    nums = [F(a) for a in numerators]
    dens = [F(b) for b in denominators]
    if terms < 0:
        raise ValueError(f"terms must be a natural number, got {terms}")
    if not any(a.denominator == 1 and a <= 0 and -a <= terms for a in nums):
        raise ValueError("series is not guaranteed to terminate")
    total = F(1)
    term = F(1)
    for h in range(terms):
        top = F(1)
        for a in nums:
            top *= a + h
        if top == 0:
            break
        bottom = F(h + 1)
        for b in dens:
            bottom *= b + h
        if bottom == 0:
            offender = next(b for b in dens if b + h == 0)
            raise SeriesDivisionError(h + 1, offender)
        term = term * top / bottom
        total += term
    return total


def _outcome(fn, *args):
    """Value, or the exception's type and (for a series division) location."""
    try:
        return ("value", fn(*args))
    except SeriesDivisionError as exc:
        return ("division", exc.term_index, exc.parameter, str(exc))
    except ValueError:
        return ("value error",)


def test_hypergeom_zero_numerator_gives_one():
    assert hypergeom_terminating([F(0), F(3, 2)], [F(5, 7)], terms=4) == 1


def test_hypergeom_3f2_frozen_values():
    # u_1(theta_1) at (d, r, s) = (1, 1/2, -1/2): 1 - 4 = -3
    args = ([F(-1), F(-1), F(-2)], [F(-1, 2), F(-1)])
    assert hypergeom_terminating(*args, terms=1) == -3
    # truncation makes extra window harmless
    assert hypergeom_terminating(*args, terms=5) == -3
    # u_2(theta_2) at (d, r, s) = (2, 1/2, -1/2): 1 - 4 + 8 = 5
    assert hypergeom_terminating([F(-2), F(-2), F(-3)], [F(-3, 2), F(-2)], terms=2) == 5
    # u_2(theta_1) at the same point: 1 - 8/3
    assert hypergeom_terminating([F(-2), F(-1), F(-4)], [F(-3, 2), F(-2)], terms=2) == F(-5, 3)


def test_hypergeom_denominator_zero_is_reported_with_index():
    with pytest.raises(SeriesDivisionError) as excinfo:
        hypergeom_terminating([F(-5)], [F(-2)], terms=5)
    assert excinfo.value.term_index == 3
    assert excinfo.value.parameter == -2


def test_hypergeom_requires_terminating_numerator():
    with pytest.raises(ValueError):
        hypergeom_terminating([F(3, 2)], [F(1, 2)], terms=4)
    with pytest.raises(ValueError):
        # terminates, but only beyond the stated window
        hypergeom_terminating([F(-7)], [F(1, 2)], terms=3)


@settings(deadline=None)
@given(st.data())
def test_hypergeom_permutation_invariance(data):
    nums = data.draw(st.lists(rationals, min_size=0, max_size=3))
    terms = data.draw(st.integers(min_value=0, max_value=5))
    nums.append(F(-data.draw(st.integers(min_value=0, max_value=terms))))
    dens = data.draw(
        st.lists(
            rationals.filter(lambda q: q.denominator > 1 or q > terms),
            min_size=0,
            max_size=3,
        )
    )
    shuffled_nums = data.draw(st.permutations(nums))
    shuffled_dens = data.draw(st.permutations(dens))
    base = hypergeom_terminating(nums, [-q for q in dens], terms)
    assert hypergeom_terminating(shuffled_nums, [-q for q in shuffled_dens], terms) == base


@settings(deadline=None)
@given(st.data())
def test_hypergeom_matched_pair_cancels(data):
    terms = data.draw(st.integers(min_value=0, max_value=5))
    t = data.draw(st.integers(min_value=0, max_value=terms))
    nums = [F(-t)] + data.draw(st.lists(rationals, min_size=0, max_size=2))
    dens = data.draw(
        st.lists(
            rationals.filter(lambda q: q.denominator > 1 or q > terms),
            min_size=0,
            max_size=2,
        )
    )
    dens = [-q for q in dens]
    # matched value must keep the added denominator Pochhammer nonzero in range
    extra = data.draw(rationals.filter(lambda q: q.denominator > 1 or q > terms or q < -terms))
    base = hypergeom_terminating(nums, dens, terms)
    assert hypergeom_terminating(nums + [extra], dens + [extra], terms) == base


# Integers in -6..0 make numerator and denominator zeros (and both at one
# index) common.
parameters = st.one_of(rationals, st.integers(min_value=-6, max_value=0).map(F))


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_hypergeom_matches_fraction_loop_oracle(data):
    terms = data.draw(st.integers(min_value=-1, max_value=8))
    # A terminating parameter -t, inside the window unless t = terms + 1.
    t = data.draw(st.integers(min_value=0, max_value=max(terms + 1, 0)))
    nums = data.draw(st.permutations(data.draw(st.lists(parameters, max_size=3)) + [F(-t)]))
    dens = data.draw(st.lists(parameters, max_size=3))
    assert _outcome(hypergeom_terminating, nums, dens, terms) == _outcome(
        hypergeom_oracle, nums, dens, terms
    )


def test_hypergeom_oracle_cases_include_every_outcome():
    cases = [([F(-5)], [F(-2)], 5), ([F(-2), F(1, 3)], [F(-1, 2)], 2), ([F(1, 2)], [], 3)]
    kinds = {_outcome(hypergeom_oracle, *case)[0] for case in cases}
    assert kinds == {"value", "division", "value error"}
    for case in cases:
        assert _outcome(hypergeom_terminating, *case) == _outcome(hypergeom_oracle, *case)


def test_rational_codec_round_trip():
    for text, value in [("-3/4", F(-3, 4)), ("5", F(5)), ("+7/21", F(1, 3)), ("0", F(0))]:
        assert parse_rational(text) == value
    assert format_rational(F(-3, 4)) == "-3/4"
    assert format_rational(F(10, 2)) == "5"
    assert format_rational(F(0)) == "0"


@settings(deadline=None)
@given(st.fractions(max_denominator=10**6))
def test_rational_codec_round_trips_everything(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["0.5", "1/2/3", "", "a/b", "3/0", "1e3"])
def test_rational_codec_rejects_non_pq(bad):
    with pytest.raises(RationalFormatError):
        parse_rational(bad)


# -- int and Fraction parameters in one call ------------------------------------


def as_int_or_fraction(draw_int):
    """An integer-valued parameter passed as an int when `draw_int` says so."""
    return lambda x: x.numerator if draw_int and x.denominator == 1 else x


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_hypergeom_mixed_int_and_fraction_parameters_match_oracle(data):
    terms = data.draw(st.integers(min_value=-1, max_value=8))
    t = data.draw(st.integers(min_value=0, max_value=max(terms + 1, 0)))
    nums = data.draw(st.permutations(data.draw(st.lists(parameters, max_size=3)) + [F(-t)]))
    dens = data.draw(st.lists(parameters, max_size=3))
    mixed_nums = [as_int_or_fraction(data.draw(st.booleans()))(a) for a in nums]
    mixed_dens = [as_int_or_fraction(data.draw(st.booleans()))(b) for b in dens]
    outcome = _outcome(hypergeom_terminating, mixed_nums, mixed_dens, terms)
    assert outcome == _outcome(hypergeom_oracle, nums, dens, terms)
    if outcome[0] == "value":
        assert type(outcome[1]) is F
    if outcome[0] == "division":
        assert type(outcome[2]) is F


def test_hypergeom_mixed_call_keeps_both_errors():
    # Non-termination: -7 is an int, the window is 3 terms.
    with pytest.raises(ValueError, match=r"\{-3, \.\.\., 0\}"):
        hypergeom_terminating([-7, F(1, 3)], [F(1, 2), 2], terms=3)
    with pytest.raises(ValueError, match="natural number"):
        hypergeom_terminating([-1, F(1, 3)], [F(1, 2)], terms=-1)
    # The int -2 vanishes at term 3, after the Fraction -1/2 + h never does.
    with pytest.raises(SeriesDivisionError) as excinfo:
        hypergeom_terminating([F(-5), 3], [F(-1, 2), -2], terms=5)
    assert excinfo.value.term_index == 3
    assert excinfo.value.parameter == -2 and type(excinfo.value.parameter) is F
    assert "-2" in str(excinfo.value) and "term 3" in str(excinfo.value)
    # The same call with every parameter a Fraction reports the same place.
    with pytest.raises(SeriesDivisionError) as fraction_info:
        hypergeom_terminating([F(-5), F(3)], [F(-1, 2), F(-2)], terms=5)
    assert (fraction_info.value.term_index, fraction_info.value.parameter) == (3, -2)


class IntSubclass(int):
    pass


class FractionSubclass(F):
    pass


@pytest.mark.parametrize("numerators, denominators, terms", [
    ((True, F(1, 3)), (F(3, 2),), 2),
    ((False, -2), (F(1, 2),), 2),
    ((-2, True), (True, F(5, 3)), 3),
    (("-2", "1/3"), ("3/2", "2"), 4),
    (("-3", "+1/2"), ("-1",), 4),
    ((IntSubclass(-3), IntSubclass(4)), (IntSubclass(7), F(1, 2)), 3),
    ((IntSubclass(0), F(1, 3)), (IntSubclass(-1),), 2),
    ((FractionSubclass(-3), FractionSubclass(1, 2)), (FractionSubclass(5, 3),), 3),
    ((FractionSubclass(-4), 2), (FractionSubclass(-3, 1),), 4),
    ((FractionSubclass(7, 2),), (), 3),
], ids=["bool-true", "bool-false", "bool-denominator", "str", "str-division",
        "int-subclass", "int-subclass-zero", "fraction-subclass", "fraction-subclass-division",
        "fraction-subclass-nonterminating"])
def test_hypergeom_parameters_past_the_exact_type_test_match_oracle(numerators, denominators,
                                                                    terms):
    """A parameter that is not exactly an int or a Fraction misses the type
    test and takes the isinstance / `exact_rational` path to the same pair."""
    outcome = _outcome(hypergeom_terminating, numerators, denominators, terms)
    assert outcome == _outcome(hypergeom_oracle, numerators, denominators, terms)
    if outcome[0] == "value":
        assert type(outcome[1]) is F


@pytest.mark.parametrize("numerators, denominators, terms", [
    ((0, F(1, 2)), (F(3, 2),), 0),
    ((F(0), F(1, 2)), (F(3, 2),), 4),
    ((F(-2), 0), (F(0), F(-1)), 5),
    ((False, "-4"), ("0",), 1),
], ids=["terms-0", "zero-fraction", "zero-int-over-zero-denominator",
        "zero-bool"])
def test_hypergeom_with_no_nonzero_term_ratio_is_the_fraction_one(numerators, denominators,
                                                                  terms):
    """terms = 0, or a zero first numerator factor (which vanishes before a
    zero denominator factor at the same index is read), gives 1 as a Fraction."""
    value = hypergeom_terminating(numerators, denominators, terms)
    assert type(value) is F and value == 1
    assert _outcome(hypergeom_oracle, numerators, denominators, terms) == ("value", 1)


def test_hypergeom_checks_come_in_order_before_the_sum_of_one():
    """A float is refused first, a negative terms next, then a series that
    cannot terminate; only a call that passes all three sums to 1 early."""
    with pytest.raises(ValueError, match=r"within 0 terms: no numerator parameter in \{-0"):
        hypergeom_terminating((1,), (), 0)
    with pytest.raises(ValueError, match=r"within 0 terms"):
        hypergeom_terminating((-1, F(1, 2)), (F(3, 2),), 0)
    for numerators in ((1,), (0,), (0, F(1, 2))):
        with pytest.raises(ValueError, match=r"terms must be a natural number, got -1\Z"):
            hypergeom_terminating(numerators, (), -1)
    for numerators, denominators in (((0.5,), ()), ((0, 0.5), ()), ((0,), (0.5,)),
                                     ((1,), (0.5,))):
        for terms in (-1, 0, 2):
            with pytest.raises(TypeError, match=r"got the float 0\.5"):
                hypergeom_terminating(numerators, denominators, terms)


# -- the table kernel -----------------------------------------------------------


def _table_outcome(fn, *args):
    """The table, or the first failure with its type, message and (for a
    series division) location."""
    try:
        return ("value", fn(*args))
    except SeriesDivisionError as exc:
        return ("division", exc.term_index, exc.parameter, str(exc))
    except ValueError as exc:
        return ("value error", str(exc))


def per_entry_table(rows, columns, denominators, terms):
    """`hypergeom_terminating` once per entry, in row-major order."""
    return [
        [hypergeom_terminating(list(row) + list(column), denominators, terms) for column in columns]
        for row in rows
    ]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_hypergeom_table_matches_per_entry_calls(data):
    # Row i leads with -i and column j with -j, as in the 3F2 and 4F3
    # tables; either may be drawn without it, so that a row and a column
    # that cannot terminate meet.  The other parameters are drawn per row
    # and per column, and denominators include non-positive integers, so
    # that zero factors come before, at and after termination.
    d = data.draw(st.integers(min_value=0, max_value=16), label="d")
    row_width, column_width, den_count = data.draw(
        st.sampled_from([(1, 2, 2), (2, 2, 3)]), label="3F2 or 4F3 shape"
    )
    terms = data.draw(st.integers(min_value=max(d - 1, 0), max_value=d + 1), label="terms")

    def group(k, width):
        lead = F(-k) if data.draw(st.integers(0, 19)) else data.draw(rationals)
        return [lead] + data.draw(st.lists(rationals, min_size=width - 1, max_size=width - 1))

    rows = [group(i, row_width) for i in range(d + 1)]
    columns = [group(j, column_width) for j in range(d + 1)]
    dens = data.draw(st.lists(
        st.one_of(rationals, st.integers(min_value=-d - 2, max_value=0).map(F)),
        min_size=den_count, max_size=den_count,
    ))
    expected = _table_outcome(per_entry_table, rows, columns, dens, terms)
    assert _table_outcome(hypergeom_table, rows, columns, dens, terms) == expected


def test_hypergeom_table_zero_denominator_before_termination_raises_like_entries():
    # -1 + h vanishes at h = 1: entries (i, j) with i, j >= 2 would still be
    # running there, and (2, 2) is the first of them in row-major order.
    args = ([(F(-i),) for i in range(4)], [(F(-j), F(1, 2)) for j in range(4)], [F(-1)], 3)
    with pytest.raises(SeriesDivisionError) as table_info:
        hypergeom_table(*args)
    with pytest.raises(SeriesDivisionError) as entry_info:
        per_entry_table(*args)
    assert (table_info.value.term_index, table_info.value.parameter) == (2, -1)
    assert (entry_info.value.term_index, entry_info.value.parameter) == (2, -1)


def test_hypergeom_table_zero_denominator_after_termination_raises_nothing():
    # -3 + h vanishes at h = 3, after every row (-i, i <= 2) has terminated.
    args = ([(F(-i), F(1, 3)) for i in range(3)], [(F(5, 2),), (F(-1),)], [F(-3)], 5)
    assert hypergeom_table(*args) == per_entry_table(*args)


def test_hypergeom_table_nonterminating_entry_raises_like_entries():
    # Row 1 cannot terminate; column 0 rescues entry (1, 0) but not (1, 1).
    rows, columns = [(F(-1),), (F(1, 2),)], [(F(-2),), (F(1, 3),)]
    with pytest.raises(ValueError, match=r"\{-2, \.\.\., 0\}") as table_info:
        hypergeom_table(rows, columns, [F(1, 5)], 2)
    with pytest.raises(ValueError) as entry_info:
        per_entry_table(rows, columns, [F(1, 5)], 2)
    assert str(table_info.value) == str(entry_info.value)
    with pytest.raises(ValueError, match="natural number"):
        hypergeom_table(rows, columns, [F(1, 5)], -1)


@pytest.mark.parametrize("d", [0, 1, 5, 12])
def test_only_the_3f2_table_calls_the_per_entry_kernel(monkeypatch, d):
    """`eval_table_4F3` evaluates through `hypergeom_table`, while
    `eval_table_hypergeometric` keeps one `hypergeom_terminating` call per
    entry: the benchmark's `grid` workload reaches its `hyper.hypergeom`
    span only through those calls, and its self-test pins that span as
    present on `grid` (perfbench `ABSENT["grid"]`).  The 3F2 table moves to
    the table kernel once the benchmark times the tables as a whole."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hypergeom_terminating(*args, **kwargs)

    monkeypatch.setattr(racah, "hypergeom_terminating", counted)
    monkeypatch.setattr(representations, "hypergeom_terminating", counted)
    eval_table_4F3(build_racah_params(d, F(7, 13)))
    assert calls == []
    eval_table_hypergeometric(build_params(d, F(7, 13), F(-7, 13)))
    assert len(calls) == (d + 1) ** 2
