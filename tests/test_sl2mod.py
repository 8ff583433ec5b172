import json
from dataclasses import replace
from fractions import Fraction as F

import pytest

from leonard_lab import sl2mod
from leonard_lab.cli import main
from leonard_lab.leonard import canonical_shift, is_dual_almost_bipartite
from leonard_lab.matrices import _ZERO, RationalMatrix
from leonard_lab.params import ParameterDomainError, build_params
from leonard_lab.representations import matrix_L_u_basis, matrix_Lstar_u_basis
from leonard_lab.sl2mod import (
    _banded_combination,
    _bands,
    build_even_module,
    check_module_relations,
    example_pair,
    example_parameters,
    terwilliger_catalog,
    verify_example_match,
)


def test_build_kind0_n3():
    m = build_even_module(0, 3)
    assert m.dim == 2
    assert m.e_sq == RationalMatrix.from_rows([[0, 2], [0, 0]])
    assert m.f_sq == RationalMatrix.from_rows([[0, 0], [6, 0]])
    assert m.h == RationalMatrix.diagonal([3, -1])
    assert m.casimir == RationalMatrix.diagonal([F(15, 2)] * 2)


def test_build_kind1_n3():
    m = build_even_module(1, 3)
    assert m.dim == 2
    assert m.h == RationalMatrix.diagonal([1, -3])
    assert m.e_sq == RationalMatrix.from_rows([[0, 6], [0, 0]])
    assert m.f_sq == RationalMatrix.from_rows([[0, 0], [2, 0]])
    assert m.casimir == RationalMatrix.diagonal([F(15, 2)] * 2)


def test_build_kind0_n0():
    m = build_even_module(0, 0)
    assert m.dim == 1
    assert m.h == RationalMatrix.from_rows([[0]])
    assert m.casimir == RationalMatrix.from_rows([[0]])
    assert m.e_sq == RationalMatrix.from_rows([[0]])


def _per_kind_module(kind, n):
    """(dim, E^2 raising, F^2 lowering, H) from one index formula per kind,
    the oracle for the weight-vector rule of `build_even_module`."""
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
    return dim, raising, lowering, cartan


@pytest.mark.parametrize("kind", (0, 1))
def test_weight_vector_rule_matches_the_per_kind_formulas(kind):
    for n in range(kind, 26):
        dim, raising, lowering, cartan = _per_kind_module(kind, n)
        zeros = [0] * (dim - 1)
        m = build_even_module(kind, n)
        assert m.dim == dim, n
        assert m.e_sq == RationalMatrix.tridiagonal([0] * dim, zeros, raising), n
        assert m.f_sq == RationalMatrix.tridiagonal([0] * dim, lowering, zeros), n
        assert m.h == RationalMatrix.diagonal(cartan), n
        assert m.casimir == RationalMatrix.diagonal([F(n * (n + 2), 2)] * dim), n


def _dense_module(kind, n):
    """E^2, F^2, H and the Casimir as dense row-major lists of Fractions,
    from the per-kind formulas."""
    dim, raising, lowering, cartan = _per_kind_module(kind, n)
    e_sq, f_sq, h, casimir = ([F(0)] * (dim * dim) for _ in range(4))
    for i in range(dim - 1):
        e_sq[i * dim + i + 1] = F(raising[i])
        f_sq[(i + 1) * dim + i] = F(lowering[i])
    for i in range(dim):
        h[i * dim + i] = F(cartan[i])
        casimir[i * dim + i] = F(n * (n + 2), 2)
    return dim, e_sq, f_sq, h, casimir


def _dense_generator_combination(kind, n, shift, scale):
    """(E^2 + F^2 + Casimir - shift) scale - H^2 scale/2 entry by entry over
    the dense lists, as the matrix sums and scalings formed it before they
    skipped zeros; kept as the oracle of `_banded_combination`."""
    dim, e_sq, f_sq, h, casimir = _dense_module(kind, n)
    h_sq = [sum((h[i * dim + k] * h[k * dim + j] for k in range(dim)), F(0))
            for i in range(dim) for j in range(dim)]
    return tuple(
        (e_sq[k] + f_sq[k] + casimir[k] - (shift if k % (dim + 1) == 0 else 0)) * scale
        - h_sq[k] * scale / 2
        for k in range(dim * dim)
    )


def _dense_catalog(D):
    """(kind, n, adjacency action, dual adjacency action) of every module
    of the halved D-cube, over dense lists."""
    return [
        (k % 2, D - 2 * k, _dense_generator_combination(k % 2, D - 2 * k, D, F(1, 2)),
         tuple(_dense_module(k % 2, D - 2 * k)[3]))
        for k in range(D // 2 + 1) if D - 2 * k >= k % 2
    ]


def _combination(m, shift, scale):
    return _banded_combination(m.n, _bands(m.kind, m.n), shift, scale)


def _times(matrix, factor):
    """matrix with every entry multiplied by factor, through the raw
    constructor."""
    return RationalMatrix(matrix.rows, matrix.cols, tuple(factor * e for e in matrix.entries))


def _assert_sparse_entries(m):
    assert all(type(e) is F for e in m.entries)
    assert all(e is _ZERO for e in m.entries if not e)


@pytest.mark.parametrize("kind", (0, 1))
def test_generator_combination_matches_the_dense_oracle(kind):
    for n in range(kind, 26):
        m = build_even_module(kind, n)
        for matrix in (m.e_sq, m.f_sq, m.h, m.casimir):
            _assert_sparse_entries(matrix)
        for shift, scale in ((1, F(1, 4)), (n, F(1, 2)), (0, F(-3, 7))):
            combined = _combination(m, shift, scale)
            assert combined.entries == _dense_generator_combination(kind, n, shift, scale), n
            _assert_sparse_entries(combined)
        if n % 2:
            first, second = example_pair(kind, n)
            assert first.entries == _dense_generator_combination(kind, n, 1, F(1, 4)), n
            _assert_sparse_entries(first)
            _assert_sparse_entries(second)


def test_catalog_matches_the_dense_oracle():
    for D in range(1, 26):
        catalog = terwilliger_catalog(D)
        assert [(e.kind, e.n, e.adjacency_action.entries, e.dual_adjacency_action.entries)
                for e in catalog] == _dense_catalog(D), D
        for e in catalog:
            _assert_sparse_entries(e.adjacency_action)


def test_build_invalid_arguments():
    # Every sl2 domain error is a ParameterDomainError (a ValueError), which
    # the CLI maps to exit 2.
    with pytest.raises(ParameterDomainError):
        build_even_module(2, 3)
    with pytest.raises(ParameterDomainError):
        build_even_module(1, 0)
    with pytest.raises(ParameterDomainError):
        build_even_module(0, -1)
    with pytest.raises(ParameterDomainError):
        build_even_module(0, 3.0)
    for kind, n in ((0, 4), (0, 0), (1, 2), (1, 0), (0, -1), (2, 3), (-1, 3)):
        with pytest.raises(ParameterDomainError):
            example_pair(kind, n)
        with pytest.raises(ParameterDomainError):
            example_parameters(kind, n)


@pytest.mark.parametrize("kind", (0, 1))
@pytest.mark.parametrize("n", range(1, 16))
def test_module_relations(kind, n):
    assert check_module_relations(build_even_module(kind, n))


@pytest.mark.parametrize("kind, n", [(0, 5), (1, 7), (0, 8)])
def test_module_relations_reject_rescaled_generators(kind, n):
    # A rescaled E^2 or F^2 keeps both commutators, and a scalar Casimir
    # commutes with every matrix; only E^2 F^2 and F^2 E^2 as polynomials in
    # H and the Casimir value see the scale.
    m = build_even_module(kind, n)
    assert not check_module_relations(replace(m, e_sq=_times(m.e_sq, 2)))
    assert not check_module_relations(replace(m, f_sq=_times(m.f_sq, 3)))


@pytest.mark.parametrize("kind, n", [(0, 0), (0, 5), (1, 7)])
def test_module_relations_reject_a_wrong_casimir_value(kind, n):
    m = build_even_module(kind, n)
    assert not check_module_relations(replace(m, casimir=m.casimir.plus_scalar(1)))


def _dense_check_module_relations(m):
    """The relations as whole-matrix identities: both commutators formed
    from matrix products as dense entry lists, H and the Casimir compared
    with the diagonal matrices they must be, and E^2 F^2, F^2 E^2 with the
    diagonal matrices of their polynomials in H; kept as the oracle of
    `check_module_relations`."""
    for weight, x in ((4, m.e_sq), (-4, m.f_sq)):
        left, right = m.h @ x, x @ m.h
        if (left.rows, left.cols) != (right.rows, right.cols):
            raise ValueError("shape mismatch")
        commutator = [a - b for a, b in zip(left.entries, right.entries)]
        if commutator != [weight * e for e in x.entries]:
            return False
    h = [m.h.at(i, i) for i in range(m.dim)]
    c = F(m.n * (m.n + 2), 2)
    if m.h != RationalMatrix.diagonal(h):
        return False
    if m.casimir != RationalMatrix.diagonal([c] * m.dim):
        return False

    def half_ef(shift, sign):
        """(c - X^2/2 + sign X)/2 at X = H + shift, on the diagonal."""
        return [(c - (x + shift) ** 2 / 2 + sign * (x + shift)) / 2 for x in h]

    ef = [u * v for u, v in zip(half_ef(-2, 1), half_ef(0, 1))]
    fe = [u * v for u, v in zip(half_ef(2, -1), half_ef(0, -1))]
    return (
        m.e_sq @ m.f_sq == RationalMatrix.diagonal(ef)
        and m.f_sq @ m.e_sq == RationalMatrix.diagonal(fe)
    )


def _with_entry(matrix, i, j, value):
    entries = list(matrix.entries)
    entries[i * matrix.cols + j] = F(value)
    return RationalMatrix(matrix.rows, matrix.cols, tuple(entries))


def _conjugated(m, weights):
    """The module in the basis v_i / weights[i]: E^2 and F^2 conjugated by
    a diagonal matrix, which keeps every relation."""
    def conj(x):
        return RationalMatrix.from_rows(
            [[x.at(i, j) * weights[j] / weights[i] for j in range(m.dim)]
             for i in range(m.dim)])
    return replace(m, e_sq=conj(m.e_sq), f_sq=conj(m.f_sq))


def _perturbed_modules(m):
    """(label, module) for each way of breaking (or, for "conjugated",
    keeping) the relations of m."""
    dim, last = m.dim, m.dim - 1
    h = [m.h.at(i, i) for i in range(dim)]
    yield "e_sq on the diagonal", replace(m, e_sq=_with_entry(m.e_sq, last, last, 1))
    yield "f_sq on the diagonal", replace(m, f_sq=_with_entry(m.f_sq, 0, 0, F(-1, 3)))
    yield "h rescaled", replace(m, h=_times(m.h, 2))
    yield "h shifted by 1", replace(m, h=m.h.plus_scalar(1))
    yield "h shifted by 1/2", replace(m, h=m.h.plus_scalar(F(1, 2)))
    yield "h_0 + 1/2", replace(m, h=_with_entry(m.h, 0, 0, h[0] + F(1, 2)))
    yield "casimir + 1", replace(m, casimir=m.casimir.plus_scalar(1))
    yield "casimir off the diagonal", replace(m, casimir=_with_entry(m.casimir, last, 0, 1))
    yield "e_sq doubled", replace(m, e_sq=_times(m.e_sq, 2))
    yield "f_sq times -1/3", replace(m, f_sq=_times(m.f_sq, F(-1, 3)))
    yield "conjugated", _conjugated(m, [F(i + 2, 3) for i in range(dim)])
    if dim > 1:
        yield "e_sq below the diagonal", replace(m, e_sq=_with_entry(m.e_sq, 1, 0, 2))
        yield "f_sq above the diagonal", replace(m, f_sq=_with_entry(m.f_sq, 0, 1, 2))
        yield "h off the diagonal", replace(m, h=_with_entry(m.h, 0, last, F(1, 5)))
        yield "h weight repeated", replace(m, h=_with_entry(m.h, 1, 1, h[0]))
        yield "e_sq band entry doubled", replace(
            m, e_sq=_with_entry(m.e_sq, 0, 1, 2 * m.e_sq.at(0, 1)))
    if dim > 2:
        yield "e_sq two above", replace(m, e_sq=_with_entry(m.e_sq, 0, 2, 1))
        yield "f_sq two below", replace(m, f_sq=_with_entry(m.f_sq, 2, 0, 1))


@pytest.mark.parametrize("kind", (0, 1))
def test_module_relations_match_the_dense_oracle(kind):
    for n in range(kind, 26):
        m = build_even_module(kind, n)
        assert check_module_relations(m) is _dense_check_module_relations(m) is True, n
        for label, perturbed in _perturbed_modules(m):
            verdict = _dense_check_module_relations(perturbed)
            assert check_module_relations(perturbed) is verdict, (n, label)
            # A zero E^2 or F^2 of dimension 1 may keep a perturbed module.
            if m.dim > 1:
                assert verdict is (label == "conjugated"), (n, label)


@pytest.mark.parametrize("field, matrix", [
    ("h", RationalMatrix.diagonal([1, 2, 3])),
    ("h", RationalMatrix.from_rows([[3, 0, 0], [0, -1, 0]])),
    ("e_sq", RationalMatrix.from_rows([[0, 2, 0], [0, 0, 0]])),
    ("e_sq", RationalMatrix.diagonal([1])),
    ("f_sq", RationalMatrix.from_rows([[0], [6]])),
    ("f_sq", RationalMatrix.diagonal([0, 0, 0])),
])
def test_module_relations_refuse_matrices_that_are_not_dim_by_dim(field, matrix):
    m = replace(build_even_module(0, 3), **{field: matrix})
    with pytest.raises(ValueError):
        _dense_check_module_relations(m)
    with pytest.raises(ValueError):
        check_module_relations(m)


@pytest.mark.parametrize("dim", (2, 4))
def test_module_relations_refuse_matrices_of_one_size_other_than_dim(dim):
    # The dense products agree in shape here, so the dense route answered
    # False (dim below the size) or an IndexError on reading H's diagonal
    # (dim above it); the check refuses the shape itself.
    m = replace(build_even_module(0, 5), dim=dim)
    with pytest.raises(ValueError, match="3x3"):
        check_module_relations(m)


def test_generator_combination_refuses_a_float_scale_or_shift():
    m = build_even_module(1, 5)
    with pytest.raises(TypeError, match="float"):
        _combination(m, 1, 0.25)
    with pytest.raises(TypeError, match="float"):
        _combination(m, 1.0, F(1, 4))


def test_example_pair_kind0_n3_frozen():
    first, second = example_pair(0, 3)
    assert first == RationalMatrix.from_rows([[F(1, 2), F(1, 2)], [F(3, 2), F(3, 2)]])
    assert second == RationalMatrix.diagonal([0, 1])


def test_example_pair_rejects_even_n():
    with pytest.raises(ValueError):
        example_pair(0, 4)
    with pytest.raises(ValueError):
        example_parameters(1, 2)


@pytest.mark.parametrize("kind", (0, 1))
@pytest.mark.parametrize("n", range(1, 26, 2))
def test_second_matrix_is_diagonal_0_to_d(kind, n):
    _, second = example_pair(kind, n)
    d = (n - 1) // 2
    assert second == RationalMatrix.diagonal(list(range(d + 1)))


@pytest.mark.parametrize("kind", (0, 1))
@pytest.mark.parametrize("n", range(1, 26, 2))
def test_example_match_all_odd_n(kind, n):
    assert verify_example_match(kind, n)


def test_example_match_is_entrywise():
    first, second = example_pair(0, 3)
    r, s, d = example_parameters(0, 3)
    assert (r, s, d) == (F(-1, 2), F(1, 2), 1)
    p = build_params(d, r, s)
    assert first == matrix_L_u_basis(p)
    assert second == matrix_Lstar_u_basis(p)


def test_catalog_frozen_examples():
    assert [(e.kind, e.n) for e in terwilliger_catalog(3)] == [(0, 3), (1, 1)]
    assert [(e.kind, e.n) for e in terwilliger_catalog(4)] == [(0, 4), (1, 2), (0, 0)]
    assert [(e.kind, e.n) for e in terwilliger_catalog(1)] == [(0, 1)]
    assert [(e.kind, e.n) for e in terwilliger_catalog(6)] == [(0, 6), (1, 4), (0, 2)]
    with pytest.raises(ParameterDomainError):
        terwilliger_catalog(0)


@pytest.mark.parametrize("D", (3, 5, 7, 9))
def test_catalog_matches_leonard_pairs_for_odd_diameter(D):
    # The adjacency action, affinely adjusted, is the u-basis matrix of L at
    # (r, s) = (-1/2, 1/2) for kind 0 and (1/2, -1/2) for kind 1; the dual
    # adjacency action recovers L* through (n - H)/4 (kind 0) or
    # (n - H)/4 - 1/2 (kind 1); and the pair is dual almost bipartite after
    # the canonical shift.
    for entry in terwilliger_catalog(D):
        kind, n = entry.kind, entry.n
        r, s, d = example_parameters(kind, n)
        p = build_params(d, r, s)
        adjusted_first = _times(entry.adjacency_action, F(1, 2)).plus_scalar(F(D - 1, 4))
        assert adjusted_first == matrix_L_u_basis(p), (D, kind, n)
        adjusted_second = _times(entry.dual_adjacency_action, F(-1, 4)).plus_scalar(
            F(n, 4) - F(kind, 2))
        assert adjusted_second == matrix_Lstar_u_basis(p), (D, kind, n)
        assert is_dual_almost_bipartite(p, canonical_shift(p)), (D, kind, n)


def test_json_serialization(capsys):
    m = build_even_module(0, 3)
    assert m.casimir == RationalMatrix.diagonal([F(15, 2), F(15, 2)])
    assert main(["catalog", "--D", "3"]) == 0
    entries = json.loads(capsys.readouterr().out)["modules"]
    assert entries[0]["kind"] == 0 and entries[0]["n"] == 3
    assert entries[1]["AStar"] == [["-1"]]


@pytest.mark.parametrize("kind, n", [(0, 5), (1, 25)])
def test_verify_sl2_builds_its_module_once(monkeypatch, capsys, kind, n):
    built = []
    build = sl2mod.build_even_module

    def counting(kind, n):
        built.append((kind, n))
        return build(kind, n)

    monkeypatch.setattr(sl2mod, "build_even_module", counting)
    assert main(["verify-sl2", "--kind", str(kind), "--n", str(n)]) == 0
    assert built == [(kind, n)]
    assert json.loads(capsys.readouterr().out)["match"] is True
    built.clear()
    assert main(["verify-sl2", "--kind", str(kind), "--n", str(n + 1)]) == 2
    assert built == []
