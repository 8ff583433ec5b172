"""Dense exact matrices over arbitrary-precision rationals.

Sizes here are tiny (at most a few dozen rows), so everything is a plain
row-major tuple of Fractions; no attempt at sparsity beyond skipping zero
factors during multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        flat = tuple(Fraction(x) for row in rows for x in row)
        return cls(nrows, ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.diagonal([Fraction(1)] * n)

    @classmethod
    def diagonal(cls, values: Sequence[Fraction | int]) -> "RationalMatrix":
        n = len(values)
        flat = [Fraction(0)] * (n * n)
        for i, v in enumerate(values):
            flat[i * n + i] = Fraction(v)
        return cls(n, n, tuple(flat))

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
        flat = [Fraction(0)] * (n * n)
        for i, v in enumerate(diag):
            flat[i * n + i] = Fraction(v)
        for i, v in enumerate(sub):
            flat[(i + 1) * n + i] = Fraction(v)
        for i, v in enumerate(sup):
            flat[i * n + i + 1] = Fraction(v)
        return cls(n, n, tuple(flat))

    # -- access ---------------------------------------------------------

    def at(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols}")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def diagonal_entries(self) -> tuple[Fraction, ...]:
        if not self.is_square:
            raise ValueError("diagonal of a non-square matrix")
        return tuple(self.at(i, i) for i in range(self.rows))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_shape(other)
        return RationalMatrix(
            self.rows,
            self.cols,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, p = self.rows, self.cols, other.cols
        flat = [Fraction(0)] * (n * p)
        for i in range(n):
            base = i * p
            for k in range(m):
                a = self.entries[i * m + k]
                if a == 0:
                    continue
                obase = k * p
                for j in range(p):
                    b = other.entries[obase + j]
                    if b != 0:
                        flat[base + j] += a * b
        return RationalMatrix(n, p, tuple(flat))

    def scaled(self, factor: Fraction | int) -> "RationalMatrix":
        f = Fraction(factor)
        return RationalMatrix(self.rows, self.cols, tuple(f * e for e in self.entries))

    def plus_scalar(self, shift: Fraction | int) -> "RationalMatrix":
        """self + shift * I."""
        if not self.is_square:
            raise ValueError("scalar shift of a non-square matrix")
        s = Fraction(shift)
        flat = list(self.entries)
        for i in range(self.rows):
            flat[i * self.cols + i] += s
        return RationalMatrix(self.rows, self.cols, tuple(flat))

    def permuted(self, perm: Sequence[int]) -> "RationalMatrix":
        """Simultaneous row/column reordering: result[i][j] = self[perm[i]][perm[j]]."""
        if not self.is_square:
            raise ValueError("permutation conjugation of a non-square matrix")
        n = self.rows
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")
        return RationalMatrix(
            n, n, tuple(self.at(perm[i], perm[j]) for i in range(n) for j in range(n))
        )

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

    Exact in the roots' own type: ints give ints, Fractions give Fractions."""
    roots = tuple(roots)
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
    monic, coefficients in descending powers, exact in the entries' own type.

    Expanding det(xI - T) along its last row gives the continuant recurrence
    p_0 = 1, p_1 = x - diag[0] and
    p_{k+1} = (x - diag[k]) p_k - sub[k-1] sup[k-1] p_{k-1}.
    """
    n = len(diag)
    if len(sub) != max(n - 1, 0) or len(sup) != max(n - 1, 0):
        raise ValueError("sub/super diagonals must have length n-1")
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
