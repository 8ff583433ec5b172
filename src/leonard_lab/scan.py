"""Basis orderings under which a square matrix is irreducible tridiagonal.

Only the zero/nonzero pattern matters.  Join i and j (i != j) when entry
(i, j) or (j, i) is nonzero.  Under an ordering p the matrix is irreducible
tridiagonal exactly when p[k] and p[k+1] are joined in both directions for
every k and no other pair is joined at all: the graph is one path through
every index, each edge nonzero both ways.  This is bandwidth-1 recognition
(Saxe, SIAM J. Algebraic Discrete Methods 1, 1980).  A path is walked from
either end and in no other way, so it and its reversal are the only
witnesses.  The cost is quadratic in the size.
"""

from __future__ import annotations

from .matrices import RationalMatrix

# The only implementation; benchmark reports record it.
SCAN_BACKEND = "python"


def scan_tridiagonal_orderings(matrix: RationalMatrix) -> list[tuple[int, ...]]:
    """Every ordering of the basis under which `matrix` becomes irreducible
    tridiagonal, in lexicographic order: none, or one path and its reversal
    (the single ordering of a 0x0 or 1x1 matrix)."""
    if not matrix.is_square:
        raise ValueError("ordering scan needs a square matrix")
    n = matrix.rows
    if n <= 1:
        return [tuple(range(n))]
    nonzero = [e != 0 for e in matrix.entries]
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if nonzero[i * n + j] != nonzero[j * n + i]:
                return []  # nonzero in one direction only
            if nonzero[i * n + j]:
                neighbours[i].append(j)
                neighbours[j].append(i)
    # With every degree at most 2 each component is a path or a cycle, so the
    # walk from the lowest path end covers all n indices exactly when the
    # whole graph is that one path (and so has n - 1 edges).
    if any(len(nb) > 2 for nb in neighbours):
        return []
    ends = [v for v in range(n) if len(neighbours[v]) == 1]
    if not ends:
        return []  # cycles and isolated indices only
    path = [ends[0]]
    while len(path) < n:
        step = [v for v in neighbours[path[-1]] if v not in path[-2:-1]]
        if not step:
            return []  # the path misses some index: the graph is not connected
        path.append(step[0])
    return sorted([tuple(path), tuple(reversed(path))])
