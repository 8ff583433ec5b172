from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_lab.matrices import RationalMatrix
from leonard_lab.scan import SCAN_BACKEND, scan_tridiagonal_orderings

ZERO, ONE = F(0), F(1)


def brute_force_orderings(matrix: RationalMatrix) -> list[tuple[int, ...]]:
    """Reference oracle: enumerate every permutation and test the reordered
    zero/nonzero pattern against the definition of an irreducible tridiagonal
    matrix.  Factorial in the size; returns hits in lexicographic order."""
    n = matrix.rows
    nonzero = [e != 0 for e in matrix.entries]

    def accepts(perm):
        for i in range(n - 1):
            u, v = perm[i], perm[i + 1]
            if not nonzero[u * n + v] or not nonzero[v * n + u]:
                return False
        for i in range(n):
            for j in range(i + 2, n):
                u, v = perm[i], perm[j]
                if nonzero[u * n + v] or nonzero[v * n + u]:
                    return False
        return True

    return [perm for perm in permutations(range(n)) if accepts(perm)]


def pattern_matrix(n: int, bits) -> RationalMatrix:
    return RationalMatrix(n, n, tuple(ONE if b else ZERO for b in bits))


def symmetric_pattern(n: int, edges) -> RationalMatrix:
    bits = [0] * (n * n)
    for u, v in edges:
        bits[u * n + v] = bits[v * n + u] = 1
    return pattern_matrix(n, bits)


def test_backend_reported():
    assert SCAN_BACKEND == "python"


def test_diagonal_pattern_has_no_witnesses():
    m = RationalMatrix.diagonal([1, 2, 3])
    assert scan_tridiagonal_orderings(m) == []


def test_one_by_one_is_vacuously_tridiagonal():
    assert scan_tridiagonal_orderings(RationalMatrix.from_rows([[0]])) == [(0,)]


def test_full_pattern_small_sizes():
    # full 2x2 fits inside the band under both orderings; full 3x3 never
    # does, the far corner entry survives every conjugation
    m2 = RationalMatrix.from_rows([[1, 1], [1, 1]])
    assert scan_tridiagonal_orderings(m2) == [(0, 1), (1, 0)]
    m3 = RationalMatrix.from_rows([[1] * 3] * 3)
    assert scan_tridiagonal_orderings(m3) == []


def test_tridiagonal_pattern_found_by_identity_and_reversal():
    m = RationalMatrix.tridiagonal(diag=[0, 5, 0, 7], sub=[1, 2, 3], sup=[4, 5, 6])
    hits = scan_tridiagonal_orderings(m)
    assert (0, 1, 2, 3) in hits
    assert (3, 2, 1, 0) in hits
    assert len(hits) == 2


def test_rejects_non_square_matrix():
    with pytest.raises(ValueError):
        scan_tridiagonal_orderings(RationalMatrix.zeros(2, 3))


@pytest.mark.parametrize(
    "n, edges",
    [
        (4, [(0, 1), (1, 2), (2, 0)]),  # triangle plus an isolated index
        (5, [(0, 1), (2, 3), (3, 4), (4, 2)]),  # an edge plus a triangle
        (5, [(0, 1), (1, 2), (2, 3), (3, 1)]),  # lollipop: walk would loop
        (4, [(0, 1), (0, 2), (0, 3)]),  # star
    ],
)
def test_rejects_patterns_that_are_not_one_path(n, edges):
    # each has n - 1 edges, nonzero both ways; the n = 5 shapes lie beyond
    # the exhaustive small-pattern test
    m = symmetric_pattern(n, edges)
    assert scan_tridiagonal_orderings(m) == [] == brute_force_orderings(m)


def test_recognizer_matches_oracle_on_every_small_pattern():
    # every 0/1 pattern with n <= 4, diagonal included: 66,067 matrices,
    # among them n = 0 and 1 and every one-directional edge
    for n in range(5):
        for bits in product((0, 1), repeat=n * n):
            m = pattern_matrix(n, bits)
            assert scan_tridiagonal_orderings(m) == brute_force_orderings(m), (n, bits)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=0, max_value=7), st.data())
def test_recognizer_matches_oracle_on_planted_paths(n, data):
    # plant a path in a random order, then flip a few entries so that most
    # drawn patterns sit right at the boundary of the accepted set
    order = data.draw(st.permutations(range(n)))
    bits = [0] * (n * n)
    for u, v in zip(order, order[1:]):
        bits[u * n + v] = bits[v * n + u] = 1
    for i in range(n):
        bits[i * n + i] = data.draw(st.integers(min_value=0, max_value=1))
    if n:
        flips = data.draw(st.lists(st.integers(min_value=0, max_value=n * n - 1), max_size=3))
        for k in flips:
            bits[k] ^= 1
    m = pattern_matrix(n, bits)
    assert scan_tridiagonal_orderings(m) == brute_force_orderings(m)


def test_recognizer_matches_oracle_on_shifted_squares():
    from leonard_lab.leonard import canonical_shift, lstar_shift_square
    from leonard_lab.params import build_params

    for d in range(1, 8):
        for r, s in ((F(1, 2), F(-1, 2)), (F(1, 2), F(1, 4))):
            p = build_params(d, r, s)
            for shift_offset in (F(0), F(1), F(17, 5)):
                m = lstar_shift_square(p, canonical_shift(p) + shift_offset)
                assert scan_tridiagonal_orderings(m) == brute_force_orderings(m), (
                    d, r, s, shift_offset,
                )
