"""Parameter arrays of Leonard pairs on d+1 points.

One `ParameterArray` type holds both arrays: the dual Hahn array of (L, L*),
built here from (d, r, s), and the barred (Racah) array built in `racah`.  A
builder supplies closed forms for theta_i, theta*_i, b_i, c_i, b*_i and c*_i
as integer pairs (numerator, positive denominator), reduced or not;
`parameter_array` checks the same structural invariants on the pairs for
both, derives a_i, a*_i, k_i, k*_i and nu from them, and forms every stored
Fraction once.

Dual Hahn: theta_i = (d-i)(d-i+r+s+1), theta*_i = i, b_i = (d-i)(d-i+s),
c_i = i(i+r), and the starred (difference-operator) coefficients, whose
Pochhammer quotients telescope to a few factors each.  These closed forms
are written once, in `_dual_hahn_pairs`, which returns every entry as one
unreduced integer pair over the common denominator of r and s, in O(d)
operations.  `build_params` hands those pairs to `parameter_array`; a
search run reads its facts from them directly (`leonard._ArrayFacts`) and
builds no Fraction array.  Both validate through one pass over the integer
pairs (`_check_invariants`), whose weight test is a sign test.
`parameter_array` completes k_i, k*_i and nu as running products of b/c
quotients; `check_closed_forms` checks them against the hypergeometric
closed forms, evaluated as integer Pochhammer products, so the two routes
share no code.

Boundary conventions: b_d, c_0, b*_d, c*_0 are stored as exact zeros.  The
out-of-range symbols (theta_{-1}, b*_{-1}, c*_{d+1}, ...) are never
materialized; every formula that mentions them multiplies a zero coefficient
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .hyper import exact_rational, format_rational


class ParameterDomainError(ValueError):
    """(d, r, s) outside the admissible domain."""


class ParameterInvariantError(RuntimeError):
    """A constructed array violates a structural invariant (library bug)."""


@dataclass(frozen=True)
class ParameterArray:
    d: int
    r: Fraction
    s: Fraction
    theta: tuple[Fraction, ...]
    theta_star: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    a: tuple[Fraction, ...]
    k: tuple[Fraction, ...]
    nu: Fraction
    b_star: tuple[Fraction, ...]
    c_star: tuple[Fraction, ...]
    a_star: tuple[Fraction, ...]
    k_star: tuple[Fraction, ...]


def check_domain(
    d: int, r: Fraction | int | str, s: Fraction | int | str
) -> tuple[Fraction, Fraction]:
    """(r, s) as Fractions if (d, r, s) is in the dual Hahn domain d >= 0,
    r, s > -1; raises ParameterDomainError otherwise (TypeError for a float).
    With a positive denominator, r <= -1 iff its numerator is at most minus
    its denominator, a comparison of two ints."""
    if type(d) is not int or d < 0:  # a bool is no size
        raise ParameterDomainError(f"d must be a natural number, got {d!r}")
    r = exact_rational("r", r)
    s = exact_rational("s", s)
    if r.numerator <= -r.denominator:
        raise ParameterDomainError(f"r must exceed -1, got {format_rational(r)}")
    if s.numerator <= -s.denominator:
        raise ParameterDomainError(f"s must exceed -1, got {format_rational(s)}")
    return r, s


def build_params(d: int, r: Fraction | int | str, s: Fraction | int | str) -> ParameterArray:
    """Build and validate the dual Hahn parameter array from (d, r, s).

    Requires d >= 0 and r, s > -1; raises ParameterDomainError otherwise.
    """
    r, s = check_domain(d, r, s)
    theta, b, c, b_star, c_star = _dual_hahn_pairs(d, r, s)
    theta_star = [(i, 1) for i in range(d + 1)]
    return parameter_array(d, r, s, theta, theta_star, b, c, b_star, c_star)


def _dual_hahn_pairs(d: int, r: Fraction, s: Fraction):
    """theta, b, c, b* and c* of the dual Hahn array (theta*_i = i) as lists
    of unreduced integer pairs (numerator, denominator), every denominator
    positive; (d, r, s) must be in the domain (`check_domain`).

    Over the common denominator D of r = R/D and s = S/D every entry is one
    integer quotient.  The Pochhammer quotients of b*_i and c*_i telescope:
    (x+2)_i / (x)_{i+1} = (x+i+1) / (x(x+1)) with x = 2(d-i)+r+s > 0, and
    (y)_n / (y+1)_{n+1} = y / ((y+n)(y+n+1)) with y = d-i+r+s+1, n = d-i,
    which is 1/(y+1) at n = 0, where y itself vanishes when r+s = -1.
    """
    D = r.denominator * s.denominator
    R = r.numerator * s.denominator
    S = s.numerator * r.denominator
    theta = [((d - i) * ((d - i + 1) * D + R + S), D) for i in range(d + 1)]
    b = [((d - i) * ((d - i) * D + S), D) for i in range(d)] + [(0, 1)]
    c = [(0, 1)] + [(i * (i * D + R), D) for i in range(1, d + 1)]
    b_star = []
    for i in range(d):
        X = 2 * (d - i) * D + R + S  # X = x D
        b_star.append(((d - i) * ((i - d) * D - S) * (X + (i + 1) * D), X * (X + D)))
    b_star.append((0, 1))
    c_star = [(0, 1)]
    for i in range(1, d + 1):
        n = d - i
        Y = (n + 1) * D + R + S  # Y = y D
        num = i * ((i - d - 1) * D - R)  # = i (i-d-r-1) D
        c_star.append((num * Y, (Y + n * D) * (Y + (n + 1) * D)) if n else (num, Y + D))
    return theta, b, c, b_star, c_star


def parameter_array(
    d: int, r: Fraction, s: Fraction, theta, theta_star, b, c, b_star, c_star
) -> ParameterArray:
    """Complete an array from its eigenvalues and off-diagonal coefficients,
    each a sequence of integer pairs (numerator, positive denominator),
    reduced or not: a_i = theta_0 - b_i - c_i, a*_i likewise, k and k* as
    cumulative b/c quotients, and nu = prod_j (theta_0 - theta_j) / c_j.
    Every stored entry is formed as a Fraction once, from its pair.

    Raises ParameterInvariantError unless the pairs pass `_check_invariants`.
    """
    _check_invariants(d, theta, b, c, b_star, c_star)
    # nu = prod_j (t_0 e_j - t_j e_0) g_j / (e_0 e_j f_j) with theta_j = t_j/e_j
    # and c_j = f_j/g_j.
    t0, e0 = theta[0]
    nu_num = nu_den = 1
    for (t, e), (f, g) in zip(theta[1:], c[1:]):
        nu_num *= (t0 * e - t * e0) * g
        nu_den *= e0 * e * f
    return ParameterArray(
        d=d,
        r=r,
        s=s,
        theta=_quotients(theta),
        theta_star=_quotients(theta_star),
        b=_quotients(b),
        c=_quotients(c),
        a=_quotients(_diagonal_pairs(theta[0], b, c)),
        k=_cumulative_quotients(b, c),
        nu=Fraction(nu_num, nu_den),
        b_star=_quotients(b_star),
        c_star=_quotients(c_star),
        a_star=_quotients(_diagonal_pairs(theta_star[0], b_star, c_star)),
        k_star=_cumulative_quotients(b_star, c_star),
    )


def _check_invariants(d, theta, b, c, b_star, c_star) -> None:
    """Raise ParameterInvariantError unless the boundary entries b_d, c_0,
    b*_d, c*_0 are zero, the interior ones nonzero, the theta_i distinct and
    the weights positive.  Every entry is an integer pair (numerator,
    denominator) with a positive denominator, reduced or not.

    One pass over the five lists reads, at each j = 1..d, theta_j, the pair
    (b_{j-1}, c_j) and the pair (b*_{j-1}, c*_j), and notes every failure;
    the first failure in the order above is raised after the pass.
    k_i = prod_{j <= i} b_{j-1} / c_j, so every k_i is positive iff every
    b_{j-1} c_j is, and k* likewise: a product that is not positive has a
    zero factor, or two of opposite sign.  nu = prod_j (theta_0 - theta_j)
    / c_j is positive iff an even number of its factors is negative.  Over
    one denominator, as both builders give theta, equal values have equal
    numerators and theta_0 > theta_j iff its numerator is larger; a theta
    with another denominator is compared cross-multiplied, and then the
    distinctness is decided on reduced pairs after the pass.
    """
    t0, e0 = theta[0]
    zero = zero_star = opposite = mixed = False
    negative = 0  # parity of the negative factors of nu
    distinct = {t0}  # the theta numerators, or reduced pairs if `mixed`
    for (t, e), (bn, _), (cn, _), (sn, _), (un, _) in zip(
        theta[1:], b, c[1:], b_star, c_star[1:]
    ):
        if bn * cn <= 0:
            if bn and cn:
                opposite = True
            else:
                zero = True
        if sn * un <= 0:
            if sn and un:
                opposite = True
            else:
                zero_star = True
        if e == e0:
            distinct.add(t)
            negative ^= (t0 > t) != (cn > 0)
        else:
            mixed = True
            negative ^= (t0 * e > t * e0) != (cn > 0)
    if zero:
        raise ParameterInvariantError("interior b_i, c_i must be nonzero")
    if zero_star:
        raise ParameterInvariantError("interior b*_i, c*_i must be nonzero")
    if b[d][0] or c[0][0] or b_star[d][0] or c_star[0][0]:
        raise ParameterInvariantError("boundary entries b_d, c_0, b*_d, c*_0 must be zero")
    if mixed:
        # Equal rationals with positive denominators have equal reduced pairs.
        distinct = {(t // g, e // g) for t, e in theta for g in (math.gcd(t, e),)}
    if len(distinct) != d + 1:
        raise ParameterInvariantError("eigenvalues theta_i are not distinct")
    if opposite or negative:
        raise ParameterInvariantError("weights k_i, k*_i and nu must be positive")


def _diagonal_pairs(first, b, c):
    """theta_0 - b_i - c_i for every i as integer pairs, from integer pairs.
    b_i and c_i are first put over the lcm of their denominators, not their
    product: on the unreduced starred pairs the product makes a*_i's
    denominator about half again as long, for its Fraction to reduce."""
    t, e = first
    pairs = []
    for (bn, bd), (cn, cd) in zip(b, c):
        if bd != cd:
            g = math.gcd(bd, cd)
            bn, cn, bd = bn * (cd // g), cn * (bd // g), bd // g * cd
        pairs.append((t * bd - (bn + cn) * e, e * bd))
    return pairs


def _quotients(pairs):
    """The Fractions of integer pairs (numerator, denominator), as a tuple
    built from a list (see the `matrices` module docstring)."""
    return tuple([Fraction(num, den) for num, den in pairs])


def _cumulative_quotients(b, c):
    """k_i = prod_{j <= i} b_{j-1} / c_j from integer pairs, one Fraction
    per entry: k_i is formed from the reduced terms of k_{i-1}, so the
    operands stay small when the pairs are not reduced."""
    k = Fraction(1)
    out = [k]
    for (bn, bd), (cn, cd) in zip(b, c[1:]):
        k = Fraction(k.numerator * bn * cd, k.denominator * bd * cn)
        out.append(k)
    return tuple(out)


# -- closed forms (independent route) ------------------------------------


def check_closed_forms(p: ParameterArray) -> bool:
    """True iff product-form k_i, k*_i and nu equal their closed forms exactly:

        k_i  = C(d, i) (d-i+s+1)_i / (r+1)_i,
        k*_i = C(d, i) (-d-s)_i (d+r+s+1)_d
               / [(-d-r)_i (2d-2i+r+s+2)_i (d-i+r+s+1)_{d-i}],
        nu   = (d+r+s+1)_d / (r+1)_d.

    With r = R/D and s = S/D over D = den(r) den(s), a Pochhammer symbol
    (X/D)_n is prod_t (X + tD) / D^n.  Each quotient has equal lengths on top
    and bottom, so the powers of D cancel and each side is an integer
    product, compared cross-multiplied with the stored entry.  A vanishing
    bottom product raises ZeroDivisionError, as the quotient would.
    """
    d = p.d
    D = p.r.denominator * p.s.denominator
    R = p.r.numerator * p.s.denominator
    S = p.s.numerator * p.r.denominator

    def rising(x, n):  # (x/D)_n D^n, x an integer numerator over D
        return math.prod(x + t * D for t in range(n))

    def differs(stored, num, den):
        if den == 0:
            raise ZeroDivisionError("closed form has a vanishing denominator")
        value, value_den = stored.as_integer_ratio()
        return num * value_den != den * value

    top = rising((d + 1) * D + R + S, d)
    if differs(p.nu, top, rising(D + R, d)):
        return False
    for i in range(d + 1):
        binom = math.comb(d, i)
        if differs(p.k[i], binom * rising((d - i + 1) * D + S, i), rising(D + R, i)):
            return False
        num = binom * rising(-d * D - S, i) * top
        den = (
            rising(-d * D - R, i)
            * rising((2 * (d - i) + 2) * D + R + S, i)
            * rising((d - i + 1) * D + R + S, d - i)
        )
        if differs(p.k_star[i], num, den):
            return False
    return True


def build_astar_sums(p: ParameterArray) -> list[Fraction]:
    """Closed form of a*_i + a*_{i+1} for i = 0..d-1 (two branches).

    Callers cross-check the result against direct sums from the a* array.
    """
    d, r, s = p.d, p.r, p.s
    if d < 1:
        raise ValueError("a* consecutive sums need d >= 1")
    sums = []
    for i in range(d - 1):
        sums.append(
            d
            - (r - s) / 2
            + (r - s)
            * (r + s)
            * (2 * d + r + s + 2)
            / (2 * (2 * (d - i) + r + s - 2) * (2 * (d - i) + r + s + 2))
        )
    sums.append(d + (d - 1) * (r - s) / (r + s + 4))
    return sums
