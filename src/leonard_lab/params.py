"""Parameter arrays for the two-parameter dual Hahn family on d+1 points.

Construction follows the product-form definitions: eigenvalues
theta_i = (d-i)(d-i+r+s+1), dual eigenvalues theta*_i = i, recurrence
coefficients b_i = (d-i)(d-i+s) and c_i = i(i+r), weights k_i as cumulative
b/c products, and the starred (difference-operator) coefficients with their
Pochhammer quotients.  The hypergeometric closed forms for k_i, k*_i and nu
live in separate functions so the two routes share no code and can be checked
against each other.

Boundary conventions: b_d, c_0, b*_d, c*_0 are stored as exact zeros.  The
out-of-range symbols (theta_{-1}, b*_{-1}, c*_{d+1}, ...) are never
materialized; every formula that mentions them multiplies a zero coefficient
first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hyper import binomial, format_rational, pochhammer


class ParameterDomainError(ValueError):
    """(d, r, s) outside the admissible domain."""


class ParameterInvariantError(RuntimeError):
    """A constructed array violates a structural invariant (library bug)."""


@dataclass(frozen=True)
class DualHahnParams:
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


def build_params(d: int, r: Fraction | int | str, s: Fraction | int | str) -> DualHahnParams:
    """Build and validate the full parameter array from (d, r, s).

    Requires d >= 0 and r, s > -1; raises ParameterDomainError otherwise.
    """
    if not isinstance(d, int) or d < 0:
        raise ParameterDomainError(f"d must be a natural number, got {d!r}")
    r = Fraction(r)
    s = Fraction(s)
    if r <= -1:
        raise ParameterDomainError(f"r must exceed -1, got {format_rational(r)}")
    if s <= -1:
        raise ParameterDomainError(f"s must exceed -1, got {format_rational(s)}")

    theta = tuple(Fraction(d - i) * (d - i + r + s + 1) for i in range(d + 1))
    theta_star = tuple(Fraction(i) for i in range(d + 1))

    b = tuple(Fraction(d - i) * (d - i + s) for i in range(d)) + (Fraction(0),)
    c = (Fraction(0),) + tuple(Fraction(i) * (i + r) for i in range(1, d + 1))

    a = _diagonal_from(theta[0], b, c, d)

    k = _cumulative_quotients(b, c, d)
    nu = Fraction(1)
    for j in range(1, d + 1):
        nu *= (theta[0] - theta[j]) / c[j]

    b_star = tuple(
        Fraction(d - i)
        * (i - d - s)
        * pochhammer(2 * (d - i) + r + s + 2, i)
        / pochhammer(2 * (d - i) + r + s, i + 1)
        for i in range(d)
    ) + (Fraction(0),)
    c_star = (Fraction(0),) + tuple(
        Fraction(i)
        * (i - d - r - 1)
        * pochhammer(d - i + r + s + 1, d - i)
        / pochhammer(d - i + r + s + 2, d - i + 1)
        for i in range(1, d + 1)
    )

    a_star = _diagonal_from(theta_star[0], b_star, c_star, d)
    k_star = _cumulative_quotients(b_star, c_star, d)

    params = DualHahnParams(
        d=d,
        r=r,
        s=s,
        theta=theta,
        theta_star=theta_star,
        b=b,
        c=c,
        a=a,
        k=k,
        nu=nu,
        b_star=b_star,
        c_star=c_star,
        a_star=a_star,
        k_star=k_star,
    )
    _check_invariants(params)
    return params


def _diagonal_from(theta0, b, c, d):
    if d == 0:
        return (theta0 - b[0],)
    out = [theta0 - b[0]]
    out.extend(theta0 - b[i] - c[i] for i in range(1, d))
    out.append(theta0 - c[d])
    return tuple(out)


def _cumulative_quotients(b, c, d):
    out = [Fraction(1)]
    for i in range(1, d + 1):
        out.append(out[-1] * b[i - 1] / c[i])
    return tuple(out)


def _check_invariants(p: DualHahnParams) -> None:
    d = p.d
    if len(set(p.theta)) != d + 1:
        raise ParameterInvariantError("eigenvalues theta_i are not distinct")
    if any(v <= 0 for v in p.k) or any(v <= 0 for v in p.k_star) or p.nu <= 0:
        raise ParameterInvariantError("weights k_i, k*_i and nu must be positive")
    if any(p.b[i] == 0 for i in range(d)) or any(p.c[i] == 0 for i in range(1, d + 1)):
        raise ParameterInvariantError("interior b_i, c_i must be nonzero")
    if any(p.b_star[i] == 0 for i in range(d)) or any(
        p.c_star[i] == 0 for i in range(1, d + 1)
    ):
        raise ParameterInvariantError("interior b*_i, c*_i must be nonzero")
    if p.b[d] != 0 or p.c[0] != 0 or p.b_star[d] != 0 or p.c_star[0] != 0:
        raise ParameterInvariantError("boundary entries b_d, c_0, b*_d, c*_0 must be zero")
    if any(p.a[i] != p.theta[0] - p.b[i] - p.c[i] for i in range(d + 1)):
        raise ParameterInvariantError("a_i != theta_0 - b_i - c_i")
    if any(p.a_star[i] != p.theta_star[0] - p.b_star[i] - p.c_star[i] for i in range(d + 1)):
        raise ParameterInvariantError("a*_i != theta*_0 - b*_i - c*_i")


# -- closed forms (independent route) ------------------------------------


def closed_form_k(p: DualHahnParams, i: int) -> Fraction:
    """k_i = C(d, i) (d-i+s+1)_i / (r+1)_i."""
    return binomial(p.d, i) * pochhammer(p.d - i + p.s + 1, i) / pochhammer(p.r + 1, i)


def closed_form_k_star(p: DualHahnParams, i: int) -> Fraction:
    """k*_i = C(d, i) (-d-s)_i (d+r+s+1)_d / [(-d-r)_i (2d-2i+r+s+2)_i (d-i+r+s+1)_{d-i}]."""
    d, r, s = p.d, p.r, p.s
    num = binomial(d, i) * pochhammer(-d - s, i) * pochhammer(d + r + s + 1, d)
    den = (
        pochhammer(-d - r, i)
        * pochhammer(2 * (d - i) + r + s + 2, i)
        * pochhammer(d - i + r + s + 1, d - i)
    )
    return num / den


def closed_form_nu(p: DualHahnParams) -> Fraction:
    """nu = (d+r+s+1)_d / (r+1)_d."""
    return pochhammer(p.d + p.r + p.s + 1, p.d) / pochhammer(p.r + 1, p.d)


def check_closed_forms(p: DualHahnParams) -> bool:
    """True iff product-form k_i, k*_i and nu equal their closed forms exactly."""
    if closed_form_nu(p) != p.nu:
        return False
    for i in range(p.d + 1):
        if closed_form_k(p, i) != p.k[i]:
            return False
        if closed_form_k_star(p, i) != p.k_star[i]:
            return False
    return True


def build_astar_sums(p: DualHahnParams) -> list[Fraction]:
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
