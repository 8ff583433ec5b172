"""Even-subalgebra modules realized as explicit rational matrices.

The generators are the squared raising/lowering operators, the Cartan
element, and the Casimir element, acting on the two families of modules
(kind 0 on a basis of size floor(n/2)+1, kind 1 on a basis of size
floor((n+1)/2)).  The Casimir acts as the scalar n(n+2)/2 by construction;
the commutation identities [H, E^2] = 4 E^2 and [H, F^2] = -4 F^2, and the
products E^2 F^2 and F^2 E^2 as polynomials in H and the Casimir value, are
checked as exact matrix identities.  For odd n, fixed rational combinations
of the generators reproduce the dual Hahn Leonard-pair matrices at
(r, s, d) = (-1/2, 1/2, (n-1)/2) for kind 0 and (1/2, -1/2, (n-1)/2) for
kind 1; the halved-cube catalog lists which modules occur for diameter D and
the adjacency/dual-adjacency actions on each.
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


def build_even_module(kind: int, n: int) -> EvenModule:
    """Generator matrices on the kind-(0|1) module of degree n.

    kind 0 (n >= 0), basis v_0..v_{floor(n/2)}:
        E^2 v_i = 2i(2i-1) v_{i-1},  F^2 v_i = (n-2i)(n-2i-1) v_{i+1},
        H v_i = (n-4i) v_i.
    kind 1 (n >= 1), basis v_0..v_{floor((n-1)/2)}:
        E^2 v_i = 2i(2i+1) v_{i-1},  F^2 v_i = (n-2i-1)(n-2i-2) v_{i+1},
        H v_i = (n-4i-2) v_i.
    """
    if kind not in (0, 1):
        raise ValueError(f"kind must be 0 or 1, got {kind!r}")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a natural number, got {n!r}")
    if kind == 1 and n < 1:
        raise ValueError("kind 1 modules need n >= 1")

    if kind == 0:
        dim = n // 2 + 1
        raising = [2 * i * (2 * i - 1) for i in range(1, dim)]
        lowering = [(n - 2 * i) * (n - 2 * i - 1) for i in range(dim - 1)]
        cartan = [n - 4 * i for i in range(dim)]
    else:
        dim = (n + 1) // 2
        raising = [2 * i * (2 * i + 1) for i in range(1, dim)]
        lowering = [(n - 2 * i - 1) * (n - 2 * i - 2) for i in range(dim - 1)]
        cartan = [n - 4 * i - 2 for i in range(dim)]

    zeros = [0] * (dim - 1)
    return EvenModule(
        kind=kind,
        n=n,
        dim=dim,
        e_sq=RationalMatrix.tridiagonal([0] * dim, zeros, raising),
        f_sq=RationalMatrix.tridiagonal([0] * dim, lowering, zeros),
        h=RationalMatrix.diagonal(cartan),
        casimir=RationalMatrix.identity(dim).scaled(Fraction(n * (n + 2), 2)),
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
    c = Fraction(m.n * (m.n + 2), 2)
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


def example_pair(kind: int, n: int) -> tuple[RationalMatrix, RationalMatrix]:
    """The rational generator combinations that reproduce the dual Hahn
    Leonard pair on the odd-degree modules:
    (E^2 + F^2 + Casimir - 1)/4 - H^2/8, paired with (n - H)/4 for kind 0 and
    (n - H)/4 - 1/2 for kind 1."""
    if n % 2 == 0:
        raise ValueError(f"example pair needs odd n, got {n}")
    m = build_even_module(kind, n)
    ident = RationalMatrix.identity(m.dim)
    first = (
        (m.e_sq + m.f_sq + m.casimir - ident).scaled(Fraction(1, 4))
        - (m.h @ m.h).scaled(Fraction(1, 8))
    )
    second = (ident.scaled(n) - m.h).scaled(Fraction(1, 4))
    if kind == 1:
        second = second - ident.scaled(Fraction(1, 2))
    return first, second


def example_parameters(kind: int, n: int) -> tuple[Fraction, Fraction, int]:
    """(r, s, d) matched by the odd-n example of the given kind."""
    if n % 2 == 0:
        raise ValueError(f"example parameters need odd n, got {n}")
    d = (n - 1) // 2
    if kind == 0:
        return Fraction(-1, 2), Fraction(1, 2), d
    if kind == 1:
        return Fraction(1, 2), Fraction(-1, 2), d
    raise ValueError(f"kind must be 0 or 1, got {kind!r}")


def verify_example_match(kind: int, n: int) -> bool:
    """Entrywise equality of the example pair with the u-basis matrices of
    (L, L*) at the matched (r, s, d)."""
    first, second = example_pair(kind, n)
    r, s, d = example_parameters(kind, n)
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
    kind 0 of degree D-2k for even k up to floor(D/2), kind 1 of degree D-2k
    for odd k up to floor((D-1)/2).  Each entry carries the adjacency action
    (E^2 + F^2 + Casimir - D)/2 - H^2/4 and the dual adjacency action H."""
    if D < 1:
        raise ParameterDomainError(f"catalog needs D >= 1, got {D}")
    entries = []
    for k in range(D // 2 + 1):
        kind = 0 if k % 2 == 0 else 1
        if kind == 1 and k > (D - 1) // 2:
            continue
        n = D - 2 * k
        m = build_even_module(kind, n)
        ident = RationalMatrix.identity(m.dim)
        adjacency = (
            (m.e_sq + m.f_sq + m.casimir - ident.scaled(D)).scaled(Fraction(1, 2))
            - (m.h @ m.h).scaled(Fraction(1, 4))
        )
        entries.append(
            CatalogEntry(
                kind=kind, n=n, adjacency_action=adjacency, dual_adjacency_action=m.h
            )
        )
    return entries
