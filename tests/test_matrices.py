from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leonard_lab.matrices import _ZERO, RationalMatrix, poly_from_roots, tridiagonal_charpoly
from test_params import fractions_in

small_fractions = fractions_in(-5, 5, 6)


def square_matrices(n):
    return st.lists(
        st.lists(small_fractions, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(RationalMatrix.from_rows)


def test_constructors_keep_a_fraction_entry():
    half = F(1, 2)
    assert RationalMatrix.diagonal([half]).entries[0] is half
    assert RationalMatrix.tridiagonal([half, 1], [half], [half]).entries[1] is half
    assert RationalMatrix.from_rows([["1/3", 2]]).entries == (F(1, 3), F(2))
    assert all(type(e) is F for e in RationalMatrix.tridiagonal([1, 2], [3], [4]).entries)
    # An int is formed directly and a bool read by `exact_rational`: each is
    # its own Fraction, and a zero of either is the shared zero.
    m = RationalMatrix.from_rows([[-7, 0, True, False]])
    assert m.entries == (F(-7), 0, F(1), 0)
    assert [type(e) for e in m.entries] == [F] * 4
    assert m.entries[1] is m.entries[3] is _ZERO


def test_constructors_and_access():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.at(1, 0) == 3
    assert m.row(0) == (1, 2)
    assert m.column(1) == (2, 4)
    assert RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]).column(2) == (3, 6)
    square = RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for access, index in ((square.row, 5), (square.row, -1), (square.column, 4),
                          (square.column, -1)):
        with pytest.raises(IndexError):
            access(index)
    assert RationalMatrix.identity(2) == RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert RationalMatrix.diagonal([5, 6]).at(0, 1) == 0
    tri = RationalMatrix.tridiagonal(diag=[1, 2, 3], sub=[7, 8], sup=[4, 5])
    assert tri == RationalMatrix.from_rows([[1, 4, 0], [7, 2, 5], [0, 8, 3]])


def test_the_raw_constructor_refuses_a_float_entry():
    """A float entry would make every operation compute in floats: the
    characteristic polynomial of [[0.5]] would be (1, -0.5)."""
    for entries in ((0.5,), [0.5], (F(1), 0, _ZERO, -0.5), (3, True, 0.5)):
        with pytest.raises(TypeError, match=r"matrix entry must be an int, Fraction or str, "
                                            r"got the float -?0\.5\Z"):
            RationalMatrix(1, len(entries), entries).charpoly()
    with pytest.raises(ValueError, match="needs 2 entries, got 1"):
        RationalMatrix(1, 2, (0.5,))


def test_the_raw_constructor_keeps_exact_entries_and_reads_the_rest():
    """int and Fraction entries stay the objects given, zeros included, so
    the operations meet a caller's zero; a p/q string becomes its Fraction."""
    zero, half = F(0), F(1, 2)
    entries = (zero, 0, half, 3)
    m = RationalMatrix(2, 2, entries)
    assert all(e is x for e, x in zip(m.entries, entries))
    assert RationalMatrix(1, 3, ("1/3", 2, half)).entries == (F(1, 3), F(2), half)
    assert RationalMatrix(1, 1, ("-2/4",)).charpoly() == (1, F(1, 2))


def test_shape_errors():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, (F(1),))
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2]]) @ RationalMatrix.from_rows([[1, 2]])


def test_matmul_exact():
    a = RationalMatrix.from_rows([[F(1, 2), F(1, 3)], [0, F(2)]])
    b = RationalMatrix.from_rows([[F(3), F(1)], [F(6), F(-3, 2)]])
    assert a @ b == RationalMatrix.from_rows([[F(7, 2), F(0)], [F(12), F(-3)]])


def triple_loop_product(a, b):
    """The dense Fraction triple loop that `RationalMatrix.__matmul__` replaced,
    kept as its oracle."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    n, m, p = a.rows, a.cols, b.cols
    flat = [F(0)] * (n * p)
    for i in range(n):
        base = i * p
        for k in range(m):
            x = a.entries[i * m + k]
            if not x:
                continue
            obase = k * p
            for j in range(p):
                y = b.entries[obase + j]
                if y:
                    flat[base + j] += x * y
    return RationalMatrix(n, p, tuple(flat))


def assert_kernel_product(a, b, expected):
    """a @ b equals `expected` entry for entry, every entry is a Fraction, and
    the zeros of the product are one shared object."""
    product = a @ b
    assert (product.rows, product.cols) == (expected.rows, expected.cols)
    assert product.entries == expected.entries
    assert all(type(e) is F for e in product.entries)
    assert len({id(e) for e in product.entries if not e}) <= 1


# Unrelated denominators, so that each operand's common denominator is a
# product of primes; small numerators and zeros, so that sums cancel.
kernel_entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7, 11, 13])),
)


def kernel_matrices(draw, rows, cols):
    entries = draw(st.lists(kernel_entries, min_size=rows * cols, max_size=rows * cols))
    as_fractions = draw(st.booleans())
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
    for i in range(rows):
        for j in range(cols):
            if i in zero_rows or j in zero_cols:
                entries[i * cols + j] = 0
            elif as_fractions:
                entries[i * cols + j] = F(entries[i * cols + j])
    return RationalMatrix(rows, cols, tuple(entries))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_matmul_matches_the_triple_loop(data):
    n, m, p = (data.draw(st.integers(0, 5)) for _ in range(3))
    a = kernel_matrices(data.draw, n, m)
    b = kernel_matrices(data.draw, m, p)
    assert_kernel_product(a, b, triple_loop_product(a, b))
    # a product of one matrix with itself reads its integer rows once
    if n == m:
        assert_kernel_product(a, a, triple_loop_product(a, a))
    # a zero-sum row: b's column 0 is orthogonal to a's row 0
    if n and m >= 2 and p:
        x, y = a.entries[0], a.entries[1]
        column = [y, -x] + [0] * (m - 2)
        c = RationalMatrix(m, p, tuple(
            column[k] if j == 0 else b.entries[k * p + j] for k in range(m) for j in range(p)
        ))
        expected = triple_loop_product(a, c)
        assert expected.at(0, 0) == 0
        assert_kernel_product(a, c, expected)
    with pytest.raises(ValueError, match="cannot multiply"):
        a @ RationalMatrix(m + 1, p, (0,) * ((m + 1) * p))


def test_matmul_scales_each_operand_by_its_own_denominator():
    a = RationalMatrix.from_rows([[F(1, 2), F(1, 3)], [F(-1, 5), 1]])
    b = RationalMatrix.from_rows([[F(1, 7), F(2)], [F(3, 11), F(-1, 13)]])
    assert_kernel_product(a, b, RationalMatrix.from_rows(
        [[F(1, 14) + F(1, 11), 1 - F(1, 39)], [F(-1, 35) + F(3, 11), F(-2, 5) - F(1, 13)]]
    ))
    assert_kernel_product(a, a, RationalMatrix.from_rows(
        [[F(1, 4) - F(1, 15), F(1, 6) + F(1, 3)], [F(-1, 10) - F(1, 5), F(-1, 15) + 1]]
    ))


def test_matmul_reads_the_last_nonzero_of_each_row():
    a = RationalMatrix.from_rows([[0, 2], [3, 0]])
    b = RationalMatrix.from_rows([[0, 5], [7, 0]])
    assert_kernel_product(a, b, RationalMatrix.from_rows([[14, 0], [0, 15]]))


def test_matmul_shares_one_zero_for_cancelled_and_empty_entries():
    a = RationalMatrix.from_rows([[1, 1], [0, 0]])
    b = RationalMatrix.from_rows([[1, 0], [-1, 0]])
    product = a @ b
    assert product == RationalMatrix.from_rows([[0, 0], [0, 0]])
    assert len({id(e) for e in product.entries}) == 1
    empty = RationalMatrix(0, 3, ()) @ RationalMatrix(3, 2, (F(1),) * 6)
    assert (empty.rows, empty.cols, empty.entries) == (0, 2, ())
    assert RationalMatrix(2, 0, ()) @ RationalMatrix(0, 2, ()) == RationalMatrix.diagonal([0, 0])


# Entries of every kind the sparse rule meets: the shared zero, a caller's
# fresh Fraction(0) and int 0, ints and Fractions.
mixed_entries = st.one_of(
    st.just(_ZERO),
    st.builds(F, st.just(0)),
    st.just(0),
    st.integers(-3, 3),
    st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 7])),
)


def mixed_matrix(draw, rows, cols):
    return RationalMatrix(rows, cols, tuple(
        draw(st.lists(mixed_entries, min_size=rows * cols, max_size=rows * cols))))


def with_cancelling_entries(draw, a, b, sign):
    """b with some entries set to sign * (-a): a + b (sign 1) or a - b
    (sign -1) cancels there, and a shared zero meets a fresh one."""
    flat = list(b.entries)
    for k in draw(st.sets(st.integers(0, max(len(flat) - 1, 0)), max_size=len(flat))):
        flat[k] = -sign * a.entries[k]
    return RationalMatrix(b.rows, b.cols, tuple(flat))


def assert_sparse_result(result, expected):
    """result equals `expected` entry for entry, every entry is a Fraction,
    and every zero is the shared one."""
    assert (result.rows, result.cols) == (expected.rows, expected.cols)
    assert result.entries == expected.entries
    assert all(type(e) is F for e in result.entries)
    assert all(e is _ZERO for e in result.entries if not e)


def dense_entrywise(a, b, op):
    """The dense entrywise sum or difference that `__add__` and `__sub__`
    replaced, kept as their oracle."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return RationalMatrix(a.rows, a.cols, tuple(op(x, y) for x, y in zip(a.entries, b.entries)))


def dense_scaled(m, factor):
    """The dense `f * e` of every entry that `scaled` replaced."""
    return RationalMatrix(m.rows, m.cols, tuple(F(factor) * e for e in m.entries))


def dense_plus_scalar(m, shift):
    """The dense diagonal shift that `plus_scalar` replaced."""
    flat = list(m.entries)
    for i in range(m.rows):
        flat[i * m.cols + i] += F(shift)
    return RationalMatrix(m.rows, m.cols, tuple(flat))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_sparse_operations_match_the_dense_oracle(data):
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    a = mixed_matrix(data.draw, rows, cols)
    b = mixed_matrix(data.draw, rows, cols)
    for sign, op, dense in ((1, RationalMatrix.__add__, lambda x, y: x + y),
                            (-1, RationalMatrix.__sub__, lambda x, y: x - y)):
        c = with_cancelling_entries(data.draw, a, b, sign)
        expected = dense_entrywise(a, c, dense)
        assert_sparse_result(op(a, c), expected)
        assert_sparse_result(op(c, a), dense_entrywise(c, a, dense))
        with pytest.raises(ValueError, match="shape mismatch"):
            op(a, RationalMatrix(rows + 1, cols, (F(1),) * ((rows + 1) * cols)))
    factor = data.draw(st.one_of(st.just(0), st.just(F(0)), mixed_entries))
    assert_sparse_result(a.scaled(factor), dense_scaled(a, factor))
    with pytest.raises(TypeError):
        a.scaled(0.5)
    with pytest.raises(TypeError):
        a.scaled(0.0)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_plus_scalar_matches_the_dense_oracle(data):
    n = data.draw(st.integers(0, 5))
    m = mixed_matrix(data.draw, n, n)
    diagonal = {i * n + i for i in range(n)}
    # a shift that cancels a diagonal entry, or one of every kind
    shift = data.draw(st.one_of(st.sampled_from([-e for e in m.entries[::n + 1]] or [0]),
                                st.just(F(0)), mixed_entries))
    shifted = m.plus_scalar(shift)
    assert shifted.entries == dense_plus_scalar(m, shift).entries
    for k, e in enumerate(shifted.entries):
        if k in diagonal:
            assert type(e) is F and (e or e is _ZERO)
        else:
            assert e is m.entries[k]
    # from the constructors every entry is a Fraction and every zero shared
    canonical = RationalMatrix.from_rows(m.to_rows())
    assert_sparse_result(canonical, m)
    assert_sparse_result(canonical.plus_scalar(shift), dense_plus_scalar(m, shift))
    with pytest.raises(TypeError):
        m.plus_scalar(0.5)
    with pytest.raises(ValueError, match="non-square"):
        RationalMatrix(n, n + 1, (F(1),) * (n * (n + 1))).plus_scalar(1)


def test_constructors_share_one_zero():
    for m in (
        RationalMatrix.from_rows([[0, F(0)], ["0", "1/2"]]),
        RationalMatrix.diagonal([0, F(0), 3]),
        RationalMatrix.tridiagonal([0, F(0), 1], [0, "0"], [F(0), 2]),
        RationalMatrix.identity(3),
    ):
        assert all(type(e) is F for e in m.entries)
        assert all(e is _ZERO for e in m.entries if not e)
    with pytest.raises(TypeError):
        RationalMatrix.diagonal([0.0])
    with pytest.raises(TypeError):
        RationalMatrix.tridiagonal([1, 1], [0.0], [0])


def test_plus_scalar_and_scaled():
    m = RationalMatrix.from_rows([[1, 2], [3, 4]])
    assert m.plus_scalar(F(1, 2)) == RationalMatrix.from_rows([[F(3, 2), 2], [3, F(9, 2)]])
    assert m.scaled(F(-1, 2)) == RationalMatrix.from_rows([[F(-1, 2), -1], [F(-3, 2), -2]])


def test_permuted_conjugation():
    m = RationalMatrix.from_rows([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    p = (2, 0, 1)
    q = m.permuted(p)
    for i in range(3):
        for j in range(3):
            assert q.at(i, j) == m.at(p[i], p[j])
    wide = RationalMatrix.from_rows([[4 * i + j for j in range(4)] for i in range(4)])
    assert wide.permuted((1, 3, 0, 2)).row(0) == (5, 7, 4, 6)
    with pytest.raises(ValueError):
        m.permuted((0, 0, 1))


def test_charpoly_small_cases():
    m = RationalMatrix.from_rows([[2, 1], [1, 2]])
    # (x-2)^2 - 1 = x^2 - 4x + 3
    assert m.charpoly() == (F(1), F(-4), F(3))
    assert RationalMatrix.diagonal([1, 2, 3]).charpoly() == poly_from_roots([1, 2, 3])
    assert RationalMatrix(0, 0, ()).charpoly() == (F(1),)


def test_poly_from_roots():
    assert poly_from_roots([]) == (F(1),)
    assert poly_from_roots([F(1, 2)]) == (F(1), F(-1, 2))
    # (x-1)(x+2) = x^2 + x - 2
    assert poly_from_roots([1, -2]) == (F(1), F(1), F(-2))


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_charpoly_is_similarity_invariant(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(square_matrices(n))
    perm = tuple(data.draw(st.permutations(range(n))))
    assert m.permuted(perm).charpoly() == m.charpoly()
    assert m.permuted(perm).trace() == m.trace()


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_charpoly_matches_diagonal_roots(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    roots = data.draw(st.lists(small_fractions, min_size=n, max_size=n))
    assert RationalMatrix.diagonal(roots).charpoly() == poly_from_roots(roots)


# Zero is drawn often, so reducible tridiagonals (a zero off-diagonal) are common.
entries = st.one_of(st.just(F(0)), small_fractions)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_continuant_matches_faddeev_leverrier(data):
    n = data.draw(st.integers(min_value=0, max_value=7))
    off = max(n - 1, 0)
    flat = data.draw(st.lists(entries, min_size=n + 2 * off, max_size=n + 2 * off))
    diag, sub, sup = flat[:n], flat[n:n + off], flat[n + off:]
    oracle = RationalMatrix.tridiagonal(diag, sub, sup).charpoly()
    assert tridiagonal_charpoly(diag, sub, sup) == oracle


def test_continuant_small_cases():
    assert tridiagonal_charpoly([], [], []) == (F(1),)
    assert tridiagonal_charpoly([F(3, 2)], [], []) == (F(1), F(-3, 2))
    # (x-2)^2 - 1, as in test_charpoly_small_cases
    assert tridiagonal_charpoly([2, 2], [1], [1]) == (F(1), F(-4), F(3))
    # a zero off-diagonal splits the matrix: the roots are the diagonal
    assert tridiagonal_charpoly([1, 2, 3], [0, 5], [7, 0]) == poly_from_roots([1, 2, 3])
    with pytest.raises(ValueError):
        tridiagonal_charpoly([1, 2], [1], [])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_continuant_and_root_product_keep_the_input_type(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    ints = st.integers(-9, 9)
    diag = data.draw(st.lists(ints, min_size=n, max_size=n))
    sub = data.draw(st.lists(ints, min_size=n - 1, max_size=n - 1))
    sup = data.draw(st.lists(ints, min_size=n - 1, max_size=n - 1))
    on_ints = tridiagonal_charpoly(diag, sub, sup)
    as_fractions = [[F(v) for v in values] for values in (diag, sub, sup)]
    on_fractions = tridiagonal_charpoly(*as_fractions)
    assert on_ints == on_fractions == RationalMatrix.tridiagonal(diag, sub, sup).charpoly()
    assert all(type(c) is int for c in on_ints)
    assert all(type(c) is F for c in on_fractions)
    assert all(type(c) is int for c in poly_from_roots(diag))
    assert all(type(c) is F for c in poly_from_roots(as_fractions[0]))
    assert poly_from_roots(iter(diag)) == poly_from_roots(diag)
