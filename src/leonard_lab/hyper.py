"""Exact scalar kernel: arbitrary-precision rationals, their ``p/q`` wire
format, and terminating hypergeometric sums at unit argument.

A sum is evaluated on its own (`hypergeom_terminating`) or as a whole table
(`hypergeom_table`) whose entry (i, j) has the numerator parameters of row i
followed by those of column j and one shared denominator list.  The table
forms the term factors of each row, each column and the denominators once,
so an entry costs one multiplication per term before its Horner pass.

Every scalar in this package is a :class:`fractions.Fraction`: always reduced,
positive denominator, and arithmetic never rounds.  The wire format used by
all JSON output is the decimal string ``"p/q"`` with ``/q`` omitted when the
denominator is one (``"-3/4"``, ``"5"``).
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

_RATIONAL_PATTERN = re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class RationalFormatError(ValueError):
    """A string does not parse as a ``p/q`` rational."""


class SeriesDivisionError(ZeroDivisionError):
    """A denominator Pochhammer factor vanished before the series terminated."""

    def __init__(self, term_index: int, parameter: Fraction):
        self.term_index = term_index
        self.parameter = parameter
        super().__init__(
            f"denominator parameter {format_rational(parameter)} has a zero "
            f"Pochhammer factor at term {term_index} before the series terminates"
        )


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` (sign allowed on p, ``/q`` optional).  No decimals."""
    s = text.strip()
    if not _RATIONAL_PATTERN.fullmatch(s):
        raise RationalFormatError(f"not a p/q rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise RationalFormatError(f"zero denominator: {text!r}") from None


def exact_rational(name: str, value: Fraction | int | str) -> Fraction:
    """value as a Fraction, a Fraction itself kept as it is; a float is
    refused, since Fraction(0.1) is not 1/10."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{name} must be an int, Fraction or str, got the float {value!r}")
    return Fraction(value)


def format_rational(value: Fraction | int) -> str:
    """Serialize to ``"p/q"``, omitting ``/q`` when the denominator is one."""
    q = exact_rational("value", value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _integer_ratio(x: Fraction | int) -> tuple[int, int]:
    """(p, q) with x == p/q, q > 0, in lowest terms; an int or a Fraction is
    read as it is, anything else goes through `exact_rational` first."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    return exact_rational("parameter", x).as_integer_ratio()


def _nonterminating(terms: int) -> ValueError:
    return ValueError(
        "series is not guaranteed to terminate within "
        f"{terms} terms: no numerator parameter in {{-{terms}, ..., 0}}"
    )


def _division_error(dens: list[tuple[int, int]], h: int) -> SeriesDivisionError:
    offender = next(Fraction(p, q) for p, q in dens if p + h * q == 0)
    return SeriesDivisionError(h + 1, offender)


def _terminates(pairs: list[tuple[int, int]], terms: int) -> bool:
    """Whether some parameter p/q is an integer in {-terms, ..., 0}."""
    return any(q == 1 and -terms <= p <= 0 for p, q in pairs)


def hypergeom_terminating(
    numerators: Iterable[Fraction | int],
    denominators: Iterable[Fraction | int],
    terms: int,
) -> Fraction:
    """Sum of a hypergeometric series at unit argument, truncated at `terms`.

    Computes sum_{h=0}^{terms} [prod (a_k)_h / prod (b_k)_h] / h!, stopping
    early as soon as a numerator Pochhammer factor vanishes.  The zero test on
    the numerator happens before the denominator factor at the same index is
    touched, so instances where both vanish at one index are well defined by
    truncation.  Some numerator parameter must be a non-positive integer -t
    with t <= terms, so the truncated sum is the whole series.

    Each parameter is read once as an integer pair p/q.  One forward pass
    writes each term ratio t_{h+1} / t_h as a pair of integers; Horner's rule
    then runs backwards over the pairs, 1 + rho_0 (1 + rho_1 (1 + ...)), as
    one integer numerator/denominator pair, and the sum is reduced to a
    Fraction once at the end.
    """
    nums = [_integer_ratio(a) for a in numerators]
    dens = [_integer_ratio(b) for b in denominators]
    if terms < 0:
        raise ValueError(f"terms must be a natural number, got {terms}")
    if not _terminates(nums, terms):
        raise _nonterminating(terms)
    # a + h = (p + h q) / q, so rho_h = top_h / bottom_h with the parameter
    # denominators of one side moved to the other as constant factors.
    top_scale = math.prod(q for _, q in dens)
    bottom_scale = math.prod(q for _, q in nums)
    ratios = []
    for h in range(terms):
        top = top_scale
        for p, q in nums:
            top *= p + h * q
        if top == 0:
            break
        bottom = bottom_scale * (h + 1)
        for p, q in dens:
            bottom *= p + h * q
        if bottom == 0:
            raise _division_error(dens, h)
        ratios.append((top, bottom))
    num = den = 1
    for top, bottom in reversed(ratios):
        den *= bottom
        num = den + top * num
    return Fraction(num, den)


def hypergeom_table(
    rows: Iterable[Iterable[Fraction | int]],
    columns: Iterable[Iterable[Fraction | int]],
    denominators: Iterable[Fraction | int],
    terms: int,
) -> list[list[Fraction]]:
    """The table of terminating sums whose entry (i, j) is
    `hypergeom_terminating(rows[i] + columns[j], denominators, terms)`.

    Values and failures are those of the per-entry calls made in row-major
    order: the first entry that cannot terminate raises the same ValueError,
    and the first that meets a zero denominator factor before it terminates
    raises the same SeriesDivisionError.

    Each parameter is read once as an integer pair p/q, and a + h is
    (p + h q) / q.  The term ratio of entry (i, j) is then
    rho_h = R_i(h) C_j(h) / B(h): R_i(h) is the product of row i's factors
    p + h q, times Q_r / Q_i, where Q_i is the product of row i's q and Q_r
    the lcm of all the Q_i; C_j(h) is the same for column j (with Q_c), also
    times the product of the denominator parameters' q; and
    B(h) = (h + 1) prod_b (p_b + h q_b) Q_r Q_c.  B is formed once per h for
    the table, C once per (j, h) and R once per (i, h), each only up to its
    first zero.  An entry of n terms multiplies R by C once per term and runs
    Horner's rule backwards on integers, as `hypergeom_terminating` does, but
    over the products B(n-k) ... B(n-1), k = 1..n, which every entry of n
    terms shares, so that a step costs one multiplication and one addition.
    The sum is reduced to a Fraction once at the end.
    """
    rows = [[_integer_ratio(a) for a in row] for row in rows]
    columns = [[_integer_ratio(a) for a in column] for column in columns]
    dens = [_integer_ratio(b) for b in denominators]
    if terms < 0:
        raise ValueError(f"terms must be a natural number, got {terms}")
    row_scale, row_factors = _factor_lists(rows, terms, 1)
    column_scale, column_factors = _factor_lists(
        columns, terms, math.prod(q for _, q in dens)
    )
    scale = row_scale * column_scale
    bottoms = []
    for h in range(terms):
        bottom = scale * (h + 1)
        for p, q in dens:
            bottom *= p + h * q
        if bottom == 0:
            break
        bottoms.append(bottom)
    suffixes = [
        list(accumulate(reversed(bottoms[:n]), operator.mul))
        for n in range(len(bottoms) + 1)
    ]
    rows_terminate = [_terminates(row, terms) for row in rows]
    columns_terminate = [_terminates(column, terms) for column in columns]
    table = []
    for row, row_terminates in zip(row_factors, rows_terminate):
        entries = []
        for column, column_terminates in zip(column_factors, columns_terminate):
            if not (row_terminates or column_terminates):
                raise _nonterminating(terms)
            tops = [x * y for x, y in zip(row, column)]
            if len(tops) > len(bottoms):
                raise _division_error(dens, len(bottoms))
            num = den = 1
            for den, top in zip(suffixes[len(tops)], reversed(tops)):
                num = den + top * num
            entries.append(Fraction(num, den))
        table.append(entries)
    return table


def _factor_lists(
    groups: list[list[tuple[int, int]]], terms: int, weight: int
) -> tuple[int, list[list[int]]]:
    """(Q, factor lists) for groups of parameter pairs: Q is the lcm over
    the groups of the product of a group's denominators Q_g, and list g
    holds weight * (Q / Q_g) * prod (p + h q) over the group for
    h = 0, 1, ..., up to the first h where a factor vanishes and at most
    `terms` of them."""
    scales = [math.prod(q for _, q in group) for group in groups]
    common = math.lcm(*scales)
    lists = []
    for group, own in zip(groups, scales):
        factor = weight * (common // own)
        factors = []
        for h in range(terms):
            x = factor
            for p, q in group:
                x *= p + h * q
            if x == 0:
                break
            factors.append(x)
        lists.append(factors)
    return common, lists
