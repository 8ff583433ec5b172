"""Dense exact matrices over arbitrary-precision rationals.

Sizes here are tiny (at most a few dozen rows), so a matrix is a plain
row-major tuple of Fractions.  Every operation works on the nonzero entries
only, by one rule: a zero is the one shared `_ZERO`.  The constructors and
every operation emit it for each zero they compute, a zero from cancellation
included, and form a new Fraction only where an operand entry is not it.  A
sum, difference or scaling passes over an entry that is `_ZERO` in every
operand and takes the other operand's entry where one of two is `_ZERO`; a
product puts each operand over one integer denominator, keeps the nonzero
entries of each row, and sums on Python ints (`RationalMatrix.__matmul__`).
Only speed depends on the sharing: any other zero, such as a caller's
Fraction(0) or int 0, takes the ordinary arithmetic path.  No float is
accepted as an entry or a scalar (`hyper.exact_rational`).  The raw
constructor keeps the entries as given when each is an int or a Fraction,
and otherwise reads every entry with `_entry`, so that a float is refused;
the constructors and operations of this module, and the tables of the
package, form only exact entries and build through `RationalMatrix._exact`,
which skips that scan.

An entry tuple is built from a list, never from a generator: CPython sizes
`tuple(generator)` by a guess and resizes it, and once freed the resized
tuple stays on the free list of its new size, which only a full garbage
collection empties.  The fewer Fractions a run allocates, the rarer those
collections, and the more memory such free lists would keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .hyper import _refuse_floats, exact_rational

_ZERO = Fraction(0)


def _entry(value: Fraction | int | str) -> Fraction:
    """value as a matrix entry: a Fraction (`exact_rational`), a zero the
    shared `_ZERO`.  An int, told by its type alone, is formed directly: a
    zero, such as the zero band of an sl2 generator, is `_ZERO` and any
    other int its own Fraction; a bool, a str or a float (refused) goes
    through `exact_rational`."""
    if type(value) is int:
        return Fraction(value) if value else _ZERO
    return exact_rational("matrix entry", value) or _ZERO


@dataclass(frozen=True)
class RationalMatrix:
    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        if not all(isinstance(x, (int, Fraction)) for x in self.entries):
            object.__setattr__(self, "entries", tuple([_entry(x) for x in self.entries]))

    @classmethod
    def _exact(cls, rows: int, cols: int, entries: tuple[Fraction, ...]) -> "RationalMatrix":
        """A rows x cols matrix of entries formed in this package, each already
        a Fraction or an int: built without `__post_init__`, whose shape test
        and entry scan such a construction never needs.  The fields are set
        one by one as the dataclass `__init__` sets them; reading `__dict__`
        instead would give every matrix a dict of its own, more than twice
        its size."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls._exact(nrows, ncols, tuple([_entry(x) for row in rows for x in row]))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.diagonal([Fraction(1)] * n)

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int]) -> "RationalMatrix":
        n = len(values)
        flat = [_ZERO] * (n * n)
        for i, v in enumerate(values):
            flat[i * n + i] = _entry(v)
        return cls._exact(n, n, tuple(flat))

    @classmethod
    def tridiagonal(
        cls,
        diag: Sequence[Fraction | int],
        sub: Sequence[Fraction | int],
        sup: Sequence[Fraction | int],
    ) -> "RationalMatrix":
        """Square matrix with `sub[i]` at (i+1, i) and `sup[i]` at (i, i+1)."""
        n = len(diag)
        if len(sub) != max(n - 1, 0) or len(sup) != max(n - 1, 0):
            raise ValueError("sub/super diagonals must have length n-1")
        flat = [_ZERO] * (n * n)
        for i, v in enumerate(diag):
            flat[i * n + i] = _entry(v)
        for i, v in enumerate(sub):
            flat[(i + 1) * n + i] = _entry(v)
        for i, v in enumerate(sup):
            flat[i * n + i + 1] = _entry(v)
        return cls._exact(n, n, tuple(flat))

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols}")
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix._exact(
            self.rows,
            self.cols,
            tuple([_ZERO if a is b is _ZERO
                   else _entry(b if a is _ZERO else a if b is _ZERO else a + b)
                   for a, b in zip(self.entries, other.entries)]),
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix._exact(
            self.rows,
            self.cols,
            tuple([_ZERO if a is b is _ZERO
                   else _entry(-b if a is _ZERO else a if b is _ZERO else a - b)
                   for a, b in zip(self.entries, other.entries)]),
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        """The exact product, formed on integers over the nonzero entries.

        Each operand is put over one common denominator (`_integer_rows`), so
        row i of the product sums a * b over the nonzero pairs (i, k), (k, j)
        on Python ints, and each nonzero sum v becomes Fraction(v, D D') once.
        The zeros of the product share one Fraction(0).
        """
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p = other.cols
        left, den = self._integer_rows()
        right, other_den = (left, den) if other is self else other._integer_rows()
        den *= other_den
        flat = [_ZERO] * (self.rows * p)
        for i, row in enumerate(left):
            if not row:
                continue
            sums = [0] * p
            for k, a in row:
                for j, b in right[k]:
                    sums[j] += a * b
            base = i * p
            for j, v in enumerate(sums):
                if v:
                    flat[base + j] = Fraction(v, den)
        return RationalMatrix._exact(self.rows, p, tuple(flat))

    def _integer_rows(self) -> tuple[list[list[tuple[int, int]]], int]:
        """(rows, D): D is the lcm of the entries' denominators, and rows[i]
        lists (j, D * entry) for each nonzero entry (i, j), in column order."""
        m, e = self.cols, self.entries
        ratios = [
            [(j, x.as_integer_ratio()) for j, x in enumerate(e[i * m : (i + 1) * m])
             if x is not _ZERO]
            for i in range(self.rows)
        ]
        den = math.lcm(*{q for row in ratios for _, (_, q) in row})
        return [[(j, n * (den // q)) for j, (n, q) in row if n] for row in ratios], den

    def scaled(self, factor: Fraction | int) -> "RationalMatrix":
        f = exact_rational("factor", factor)
        return RationalMatrix._exact(
            self.rows,
            self.cols,
            tuple([_ZERO if e is _ZERO else _entry(f * e) for e in self.entries]),
        )

    def plus_scalar(self, shift: Fraction | int) -> "RationalMatrix":
        """self + shift * I.  The entries off the diagonal are carried over
        as they are."""
        if not self.is_square:
            raise ValueError("scalar shift of a non-square matrix")
        s = exact_rational("shift", shift)
        flat = list(self.entries)
        for k in range(0, self.rows * self.cols, self.cols + 1):
            flat[k] = _entry(flat[k] + s)
        return RationalMatrix._exact(self.rows, self.cols, tuple(flat))

    def permuted(self, perm: Sequence[int]) -> "RationalMatrix":
        """Simultaneous row/column reordering: result[i][j] = self[perm[i]][perm[j]]."""
        if not self.is_square:
            raise ValueError("permutation conjugation of a non-square matrix")
        n = self.rows
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        e = self.entries
        return RationalMatrix._exact(n, n, tuple([e[i * n + j] for i in perm for j in perm]))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return sum((self.at(i, i) for i in range(self.rows)), Fraction(0))

    def charpoly(self) -> tuple[Fraction, ...]:
        """Monic characteristic polynomial, coefficients in descending powers.

        Faddeev-LeVerrier over the rationals; exact for any square size.
        For a tridiagonal matrix, `tridiagonal_charpoly` gives the same
        coefficients in O(n^2).
        """
        if not self.is_square:
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.rows
        coeffs = [Fraction(1)]
        if n == 0:
            return tuple(coeffs)
        work = self
        c = -work.trace()
        coeffs.append(c)
        for k in range(2, n + 1):
            work = self @ work.plus_scalar(c)
            c = -work.trace() / k
            coeffs.append(c)
        return tuple(coeffs)

    def _same_shape(self, other: "RationalMatrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def poly_from_roots(roots: Iterable[Fraction | int]) -> tuple[Fraction | int, ...]:
    """Coefficients of prod (x - root), descending powers, leading 1.

    Exact in the roots' own type, int or Fraction; a float is a TypeError."""
    roots = tuple(roots)
    _refuse_floats("root", roots)
    coeffs = [_one_like(roots)]
    for root in roots:
        new = coeffs + [0]
        for idx, c in enumerate(coeffs):
            new[idx + 1] -= root * c
        coeffs = new
    return tuple(coeffs)


def tridiagonal_charpoly(
    diag: Sequence[Fraction | int],
    sub: Sequence[Fraction | int],
    sup: Sequence[Fraction | int],
) -> tuple[Fraction | int, ...]:
    """Characteristic polynomial of `RationalMatrix.tridiagonal(diag, sub, sup)`,
    monic, descending powers, exact in the entries' own type (no float).

    Expanding det(xI - T) along its last row gives the continuant recurrence
    p_0 = 1, p_1 = x - diag[0] and
    p_{k+1} = (x - diag[k]) p_k - sub[k-1] sup[k-1] p_{k-1}.
    """
    n = len(diag)
    if len(sub) != max(n - 1, 0) or len(sup) != max(n - 1, 0):
        raise ValueError("sub/super diagonals must have length n-1")
    _refuse_floats("entry", diag, sub, sup)
    prev: list = []
    coeffs = [_one_like(diag)]
    for k, a in enumerate(diag):
        new = coeffs + [0]
        for idx, c in enumerate(coeffs):
            new[idx + 1] -= a * c
        if k:
            coupling = sub[k - 1] * sup[k - 1]
            for idx, c in enumerate(prev):
                new[idx + 2] -= coupling * c
        prev, coeffs = coeffs, new
    return tuple(coeffs)


def _one_like(values: Sequence[Fraction | int]) -> Fraction | int:
    """The leading coefficient 1 in the type of the first value (int when empty)."""
    return values[0] ** 0 if values else 1
