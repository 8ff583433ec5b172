"""Exact scalar kernel: arbitrary-precision rationals, their ``p/q`` wire
format, and terminating hypergeometric sums at unit argument.

Every scalar in this package is a :class:`fractions.Fraction`: always reduced,
positive denominator, and arithmetic never rounds.  The wire format used by
all JSON output is the decimal string ``"p/q"`` with ``/q`` omitted when the
denominator is one (``"-3/4"``, ``"5"``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
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


def format_rational(value: Fraction | int) -> str:
    """Serialize to ``"p/q"``, omitting ``/q`` when the denominator is one."""
    q = value if isinstance(value, Fraction) else Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _integer_ratio(x: Fraction | int) -> tuple[int, int]:
    """(p, q) with x == p/q, q > 0, in lowest terms; an int or a Fraction is
    read as it is, anything else goes through Fraction first."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    return Fraction(x).as_integer_ratio()


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
    if not any(q == 1 and -terms <= p <= 0 for p, q in nums):
        raise ValueError(
            "series is not guaranteed to terminate within "
            f"{terms} terms: no numerator parameter in {{-{terms}, ..., 0}}"
        )
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
            offender = next(Fraction(p, q) for p, q in dens if p + h * q == 0)
            raise SeriesDivisionError(h + 1, offender)
        ratios.append((top, bottom))
    num = den = 1
    for top, bottom in reversed(ratios):
        den *= bottom
        num = den + top * num
    return Fraction(num, den)
