"""Even-subalgebra modules realized as explicit rational matrices.

Both kinds of module of degree n are read off one sl2 module V_n with weight
vectors w_0..w_n:

    E^2 w_j = j(j-1) w_{j-2},  F^2 w_j = (n-j)(n-j-1) w_{j+2},  H w_j = (n-2j) w_j.

The kind-k module (k = 0 or 1, n >= k) has basis v_i = w_{2i+k}, the weight
vectors of parity k, so its dimension is (n-k)//2 + 1.  The Casimir acts as
the scalar n(n+2)/2 by construction; the commutation identities
[H, E^2] = 4 E^2 and [H, F^2] = -4 F^2, and the products E^2 F^2 and F^2 E^2
as polynomials in H and the Casimir value, are checked as exact matrix
identities.  For odd n, fixed rational combinations of the generators
reproduce the dual Hahn Leonard-pair matrices at
(r, s, d) = (k - 1/2, 1/2 - k, (n-1)/2); the halved-cube catalog lists which
modules occur for diameter D and the adjacency/dual-adjacency actions on
each.  Every (kind, n) outside these domains is a `ParameterDomainError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrices import RationalMatrix
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
    casimir: RationalMatrix


def _require_module(kind: int, n: int) -> None:
    if kind not in (0, 1) or not isinstance(n, int) or n < kind:
        raise ParameterDomainError(
            f"a module needs kind 0 or 1 and an integer n >= kind, got kind {kind!r}, n {n!r}"
        )


def _require_example(kind: int, n: int) -> None:
    _require_module(kind, n)
    if n % 2 == 0:
        raise ParameterDomainError(f"the example needs odd n, got {n}")


def _casimir_value(n: int) -> Fraction:
    return Fraction(n * (n + 2), 2)


def build_even_module(kind: int, n: int) -> EvenModule:
    """Generator matrices on the kind-(0|1) module of degree n.

    Basis v_i = w_j with j = 2i + kind, for j = kind, kind+2, ... <= n:
        E^2 v_i = j(j-1) v_{i-1},  F^2 v_i = (n-j)(n-j-1) v_{i+1},
        H v_i = (n-2j) v_i.
    """
    _require_module(kind, n)
    weights = range(kind, n + 1, 2)  # j of v_0, v_1, ...
    dim = len(weights)
    raising = [j * (j - 1) for j in weights[1:]]
    lowering = [(n - j) * (n - j - 1) for j in weights[:-1]]
    zeros = [0] * (dim - 1)
    return EvenModule(
        kind=kind,
        n=n,
        dim=dim,
        e_sq=RationalMatrix.tridiagonal([0] * dim, zeros, raising),
        f_sq=RationalMatrix.tridiagonal([0] * dim, lowering, zeros),
        h=RationalMatrix.diagonal([n - 2 * j for j in weights]),
        casimir=RationalMatrix.identity(dim).scaled(_casimir_value(n)),
    )


def check_module_relations(m: EvenModule) -> bool:
    """[H, E^2] = 4 E^2, [H, F^2] = -4 F^2, H diagonal (a weight basis),
    Casimir = c I with c = n(n+2)/2, and the two products of the squared
    generators as polynomials in H:

        E^2 F^2 = (c - (H-2)^2/2 + H - 2)(c - H^2/2 + H)/4,
        F^2 E^2 = (c - (H+2)^2/2 - H - 2)(c - H^2/2 - H)/4,

    which follow from EF = (c - H^2/2 + H)/2 and EH = (H - 2)E.  With H
    diagonal, each side is the diagonal matrix of its polynomial at the
    entries of H.  A scalar Casimir commutes with every matrix, so its
    centrality tests nothing; the products fix the sizes of E^2 and F^2
    against c and H."""
    comm_e = m.h @ m.e_sq - m.e_sq @ m.h
    if comm_e != m.e_sq.scaled(4):
        return False
    comm_f = m.h @ m.f_sq - m.f_sq @ m.h
    if comm_f != m.f_sq.scaled(-4):
        return False
    h = [m.h.at(i, i) for i in range(m.dim)]
    c = _casimir_value(m.n)
    if m.h != RationalMatrix.diagonal(h):
        return False
    if m.casimir != RationalMatrix.identity(m.dim).scaled(c):
        return False

    def half_ef(shift: int, sign: int) -> list[Fraction]:
        """(c - X^2/2 + sign X)/2 at X = H + shift, on the diagonal."""
        return [(c - (x + shift) ** 2 / 2 + sign * (x + shift)) / 2 for x in h]

    ef = [u * v for u, v in zip(half_ef(-2, 1), half_ef(0, 1))]
    fe = [u * v for u, v in zip(half_ef(2, -1), half_ef(0, -1))]
    return (
        m.e_sq @ m.f_sq == RationalMatrix.diagonal(ef)
        and m.f_sq @ m.e_sq == RationalMatrix.diagonal(fe)
    )


def _generator_combination(m: EvenModule, shift: int, scale: Fraction) -> RationalMatrix:
    """(E^2 + F^2 + Casimir - shift) scale - H^2 scale/2."""
    combined = (m.e_sq + m.f_sq + m.casimir).plus_scalar(-shift)
    return combined.scaled(scale) - (m.h @ m.h).scaled(scale / 2)


def _example_pair(m: EvenModule) -> tuple[RationalMatrix, RationalMatrix]:
    """`example_pair` on a built module."""
    first = _generator_combination(m, 1, Fraction(1, 4))
    second = m.h.scaled(Fraction(-1, 4)).plus_scalar(Fraction(m.n - 2 * m.kind, 4))
    return first, second


def example_pair(kind: int, n: int) -> tuple[RationalMatrix, RationalMatrix]:
    """The rational generator combinations that reproduce the dual Hahn
    Leonard pair on the odd-degree modules:
    (E^2 + F^2 + Casimir - 1)/4 - H^2/8, paired with (n - H)/4 - kind/2,
    which is i on v_i."""
    _require_example(kind, n)
    return _example_pair(build_even_module(kind, n))


def example_parameters(kind: int, n: int) -> tuple[Fraction, Fraction, int]:
    """(r, s, d) matched by the odd-n example of the given kind."""
    _require_example(kind, n)
    r = Fraction(2 * kind - 1, 2)
    return r, -r, (n - 1) // 2


def verify_example_match(kind: int, n: int) -> bool:
    """Entrywise equality of the example pair with the u-basis matrices of
    (L, L*) at the matched (r, s, d)."""
    return _matched_example(kind, n)[1]


def _matched_example(kind: int, n: int) -> tuple[EvenModule, bool]:
    """The module of the odd-n example, built once after its domain is
    decided, and `verify_example_match` on it."""
    r, s, d = example_parameters(kind, n)
    m = build_even_module(kind, n)
    first, second = _example_pair(m)
    p = build_params(d, r, s)
    return m, first == matrix_L_u_basis(p) and second == matrix_Lstar_u_basis(p)


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
    if D < 1:
        raise ParameterDomainError(f"catalog needs D >= 1, got {D}")
    entries = []
    for k in range(D // 2 + 1):
        kind, n = k % 2, D - 2 * k
        if n < kind:
            continue
        m = build_even_module(kind, n)
        adjacency = _generator_combination(m, D, Fraction(1, 2))
        entries.append(
            CatalogEntry(
                kind=kind, n=n, adjacency_action=adjacency, dual_adjacency_action=m.h
            )
        )
    return entries
