"""Even-subalgebra modules realized as explicit rational matrices.

Both kinds of module of degree n are read off one sl2 module V_n with weight
vectors w_0..w_n:

    E^2 w_j = j(j-1) w_{j-2},  F^2 w_j = (n-j)(n-j-1) w_{j+2},  H w_j = (n-2j) w_j.

The kind-k module (k = 0 or 1, n >= k) has basis v_i = w_{2i+k}, the weight
vectors of parity k, so its dimension is (n-k)//2 + 1.  The Casimir acts as
the scalar c = n(n+2)/2, read from n where it acts.  The one rule `_bands`
gives the diagonal of H, the band of E^2 above it and the band of F^2 below
it as ints, and every builder reads it.  The commutation identities
[H, E^2] = 4 E^2 and [H, F^2] = -4 F^2 are decided entry by entry on a
diagonal H; the products E^2 F^2 and F^2 E^2, the only matrix products, are
compared with their polynomials in H and c.  For odd n, fixed rational
combinations of the generators, formed on the bands with no module built,
reproduce the dual Hahn Leonard-pair matrices at
(r, s, d) = (k - 1/2, 1/2 - k, (n-1)/2); the halved-cube catalog lists which
modules occur for diameter D and the adjacency/dual-adjacency actions on
each.  Every (kind, n) outside these domains is a `ParameterDomainError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hyper import exact_rational
from .matrices import _ZERO, RationalMatrix
from .params import ParameterDomainError, build_params
from .representations import matrix_L_u_basis, matrix_Lstar_u_basis


@dataclass(frozen=True)
class EvenModule:
    kind: int  # 0 or 1
    n: int
    dim: int
    e_sq: RationalMatrix
    f_sq: RationalMatrix
    h: RationalMatrix


def _require_module(kind: int, n: int) -> None:
    if type(kind) is not int or kind not in (0, 1) or type(n) is not int or n < kind:
        raise ParameterDomainError(
            f"a module needs kind 0 or 1 and an integer n >= kind, got kind {kind!r}, n {n!r}"
        )


def _require_example(kind: int, n: int) -> None:
    _require_module(kind, n)
    if n % 2 == 0:
        raise ParameterDomainError(f"the example needs odd n, got {n}")


def _bands(kind: int, n: int) -> tuple[list[int], list[int], list[int]]:
    """The weight-vector rule as ints: the diagonal of H, the superdiagonal
    of E^2 and the subdiagonal of F^2 on v_i = w_j, j = 2i + kind <= n."""
    weights = range(kind, n + 1, 2)
    return (
        [n - 2 * j for j in weights],
        [j * (j - 1) for j in weights[1:]],
        [(n - j) * (n - j - 1) for j in weights[:-1]],
    )


def _ratio(num: int, den: int) -> Fraction:
    """num/den as a matrix entry: one Fraction, or the shared zero."""
    return Fraction(num, den) if num else _ZERO


def build_even_module(kind: int, n: int) -> EvenModule:
    """Generator matrices on the kind-(0|1) module of degree n.

    Basis v_i = w_j with j = 2i + kind, for j = kind, kind+2, ... <= n:
        E^2 v_i = j(j-1) v_{i-1},  F^2 v_i = (n-j)(n-j-1) v_{i+1},
        H v_i = (n-2j) v_i.
    """
    _require_module(kind, n)
    h, raising, lowering = _bands(kind, n)
    dim = len(h)
    zeros = [0] * (dim - 1)
    return EvenModule(
        kind=kind,
        n=n,
        dim=dim,
        e_sq=RationalMatrix.tridiagonal([0] * dim, zeros, raising),
        f_sq=RationalMatrix.tridiagonal([0] * dim, lowering, zeros),
        h=RationalMatrix.diagonal(h),
    )


def check_module_relations(m: EvenModule) -> bool:
    """[H, E^2] = 4 E^2, [H, F^2] = -4 F^2, H diagonal (a weight basis),
    and the two products of the squared generators as polynomials in H and
    the Casimir value c = n(n+2)/2:

        E^2 F^2 = (c - (H-2)^2/2 + H - 2)(c - H^2/2 + H)/4,
        F^2 E^2 = (c - (H+2)^2/2 - H - 2)(c - H^2/2 - H)/4,

    which follow from EF = (c - H^2/2 + H)/2 and EH = (H - 2)E.  With H
    diagonal, entry (i, j) of [H, X] is (h_i - h_j) X_ij, so each commutator
    holds when h_i - h_j is 4 (or -4) at every nonzero entry of X, on integer
    pairs; and each side of a product identity is the diagonal matrix of its
    polynomial at the entries of H, evaluated on integer pairs.  Only
    E^2 F^2 and F^2 E^2 are matrix products.  A scalar Casimir commutes with
    every matrix, so its centrality tests nothing; the products, where c
    acts, fix the sizes of E^2 and F^2 against c and H.  H, E^2 and F^2
    must be dim x dim, or this is a ValueError."""
    dim = m.dim
    for x in (m.h, m.e_sq, m.f_sq):
        if (x.rows, x.cols) != (dim, dim):
            raise ValueError(
                f"a generator of a dimension-{dim} module is {x.rows}x{x.cols}"
            )
    diagonal = m.h.entries[:: dim + 1]
    if m.h != RationalMatrix.diagonal(diagonal):
        return False
    h = [x.as_integer_ratio() for x in diagonal]
    for weight, x in ((4, m.e_sq), (-4, m.f_sq)):
        for k, v in enumerate(x.entries):
            if v is not _ZERO and v:
                (hn, hq), (gn, gq) = h[k // dim], h[k % dim]
                if hn * gq - gn * hq != weight * hq * gq:
                    return False
    n_sq = m.n * (m.n + 2)

    def half_ef(x: int, q: int, sign: int) -> int:
        """(c - X^2/2 + sign X)/2 at X = x/q, times 4 q^2."""
        return n_sq * q * q - x * x + 2 * sign * x * q

    ef, fe = [_ZERO] * (dim * dim), [_ZERO] * (dim * dim)
    for i, (x, q) in enumerate(h):
        den = 16 * q ** 4
        ef[i * (dim + 1)] = _ratio(half_ef(x - 2 * q, q, 1) * half_ef(x, q, 1), den)
        fe[i * (dim + 1)] = _ratio(half_ef(x + 2 * q, q, -1) * half_ef(x, q, -1), den)
    return (m.e_sq @ m.f_sq).entries == tuple(ef) and (m.f_sq @ m.e_sq).entries == tuple(fe)


def _banded_combination(
    n: int, bands: tuple[list[int], list[int], list[int]], shift: int, scale: Fraction
) -> RationalMatrix:
    """(E^2 + F^2 + Casimir - shift) scale - H^2 scale/2 on `_bands`: with
    scale = P/Q, the tridiagonal matrix with (n(n+2) - 2 shift - h_i^2)
    P/(2Q) on the diagonal, raising P/Q above it and lowering P/Q below it."""
    shift, shift_den = exact_rational("shift", shift).as_integer_ratio()
    p, q = exact_rational("factor", scale).as_integer_ratio()
    h, raising, lowering = bands
    dim = len(h)
    flat = [_ZERO] * (dim * dim)
    base, den = (n * (n + 2) * shift_den - 2 * shift) * p, 2 * q * shift_den
    for i, x in enumerate(h):
        flat[i * (dim + 1)] = _ratio(base - x * x * shift_den * p, den)
    for i, (up, down) in enumerate(zip(raising, lowering)):
        flat[i * (dim + 1) + 1] = _ratio(up * p, q)
        flat[(i + 1) * dim + i] = _ratio(down * p, q)
    return RationalMatrix._exact(dim, dim, tuple(flat))


def example_pair(kind: int, n: int) -> tuple[RationalMatrix, RationalMatrix]:
    """The rational generator combinations that reproduce the dual Hahn
    Leonard pair on the odd-degree modules:
    (E^2 + F^2 + Casimir - 1)/4 - H^2/8, paired with (n - H)/4 - kind/2,
    which is i on v_i.  Both are read off `_bands`, with no module built;
    the second is the diagonal (n - 2 kind - h_i)/4."""
    _require_example(kind, n)
    bands = _bands(kind, n)
    first = _banded_combination(n, bands, 1, Fraction(1, 4))
    dim = len(bands[0])
    second = [_ZERO] * (dim * dim)
    for i, x in enumerate(bands[0]):
        second[i * (dim + 1)] = _ratio(n - 2 * kind - x, 4)
    return first, RationalMatrix._exact(dim, dim, tuple(second))


def example_parameters(kind: int, n: int) -> tuple[Fraction, Fraction, int]:
    """(r, s, d) matched by the odd-n example of the given kind."""
    _require_example(kind, n)
    r = Fraction(2 * kind - 1, 2)
    return r, -r, (n - 1) // 2


def verify_example_match(kind: int, n: int) -> bool:
    """Entrywise equality of the example pair with the u-basis matrices of
    (L, L*) at the matched (r, s, d); the domain is decided first, and no
    module is built."""
    r, s, d = example_parameters(kind, n)
    first, second = example_pair(kind, n)
    p = build_params(d, r, s)
    return first == matrix_L_u_basis(p) and second == matrix_Lstar_u_basis(p)


@dataclass(frozen=True)
class CatalogEntry:
    kind: int
    n: int
    adjacency_action: RationalMatrix
    dual_adjacency_action: RationalMatrix


def terwilliger_catalog(D: int) -> list[CatalogEntry]:
    """Isomorphism classes of irreducible modules for the halved D-cube:
    kind k mod 2 of degree D-2k for k = 0..floor(D/2), wherever that module
    exists (degree >= kind).  Each entry carries the adjacency action
    (E^2 + F^2 + Casimir - D)/2 - H^2/4 and the dual adjacency action H."""
    if isinstance(D, bool) or D < 1:
        raise ParameterDomainError(f"catalog needs D >= 1, got {D}")
    entries = []
    for k in range(D // 2 + 1):
        kind, n = k % 2, D - 2 * k
        if n < kind:
            continue
        bands = _bands(kind, n)
        entries.append(
            CatalogEntry(
                kind=kind,
                n=n,
                adjacency_action=_banded_combination(n, bands, D, Fraction(1, 2)),
                dual_adjacency_action=RationalMatrix.diagonal(bands[0]),
            )
        )
    return entries
