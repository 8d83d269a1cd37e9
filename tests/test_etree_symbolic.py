"""Tests for the elimination tree and symbolic factorization."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    elimination_tree,
    factor_pattern_csc,
    postorder,
    symbolic_factorize,
)
from tests.conftest import laplacian_1d, laplacian_2d, random_spd
from tests.reference_factor import native_cholesky


def test_etree_tridiagonal_is_a_path():
    a = laplacian_1d(10)
    parent = elimination_tree(a)
    assert np.array_equal(parent[:-1], np.arange(1, 10))
    assert parent[-1] == -1


def test_etree_diagonal_matrix_is_forest_of_roots():
    a = sp.eye(7, format="csr")
    parent = elimination_tree(a)
    assert np.all(parent == -1)


def test_etree_arrow_matrix():
    """Arrow matrix (dense last row/col): every column's parent is n-1... or
    the next column on the path to it."""
    n = 6
    a = sp.lil_matrix((n, n))
    a[np.arange(n), np.arange(n)] = 4.0
    a[n - 1, :] = 1.0
    a[:, n - 1] = 1.0
    parent = elimination_tree(sp.csr_matrix(a))
    assert np.all(parent[:-1] == n - 1)
    assert parent[-1] == -1


def test_postorder_children_before_parents():
    a = laplacian_2d(6, 6)
    parent = elimination_tree(a)
    order = postorder(parent)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    for v, p in enumerate(parent):
        if p != -1:
            assert position[v] < position[p]


def test_postorder_is_permutation():
    a = random_spd(40, seed=7)
    order = postorder(elimination_tree(a))
    assert sorted(order.tolist()) == list(range(40))


def test_symbolic_matches_numeric_pattern():
    """Symbolic nnz(L) must equal the numeric factor's nnz (no cancellation)."""
    a = random_spd(80, density=0.05, seed=11)
    f = native_cholesky(a, ordering="natural")
    sym = symbolic_factorize(a)
    assert sym.nnz_l == f.l.nnz
    assert np.array_equal(sym.col_counts, np.diff(f.l.tocsc().indptr))


def test_symbolic_pattern_csc_contains_matrix_pattern():
    a = random_spd(50, density=0.06, seed=2)
    sym = symbolic_factorize(a)
    patt = factor_pattern_csc(sym)
    lower_a = sp.tril(a).tocoo()
    patt_set = set(zip(patt.tocoo().row.tolist(), patt.tocoo().col.tolist()))
    for i, j in zip(lower_a.row.tolist(), lower_a.col.tolist()):
        assert (i, j) in patt_set


def test_symbolic_without_pattern_has_counts_only():
    a = random_spd(30, seed=5)
    sym = symbolic_factorize(a, with_pattern=False)
    assert sym.row_indptr is None
    with pytest.raises(ValueError):
        sym.row(0)
    with pytest.raises(ValueError):
        factor_pattern_csc(sym)


def test_symbolic_flops_positive_and_consistent():
    a = laplacian_2d(8, 8)
    sym = symbolic_factorize(a)
    assert sym.flops >= sym.nnz_l  # at least one op per stored entry
    # Dense lower bound: factoring a dense matrix costs ~n^3/3.
    assert sym.flops <= a.shape[0] ** 3


def test_supernodes_partition_columns():
    a = laplacian_2d(7, 7)
    sym = symbolic_factorize(a)
    s = sym.supernodes
    assert s[0] == 0 and s[-1] == a.shape[0]
    assert np.all(np.diff(s) >= 1)


def test_supernodes_dense_matrix_single_supernode():
    a = sp.csr_matrix(np.ones((8, 8)) + 8 * np.eye(8))
    sym = symbolic_factorize(a)
    assert len(sym.supernodes) == 2  # one supernode covering all columns


def test_tridiagonal_symbolic_no_fill():
    a = laplacian_1d(25)
    sym = symbolic_factorize(a)
    assert sym.nnz_l == 25 + 24  # diagonal + one subdiagonal


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_symbolic_nnz_matches_native_numeric(n, seed):
    a = random_spd(n, density=min(1.0, 5.0 / n), seed=seed)
    sym = symbolic_factorize(a)
    f = native_cholesky(a, ordering="natural")
    assert sym.nnz_l == f.l.nnz


def test_postorder_rejects_cyclic_parent():
    parent = np.array([1, 0], dtype=np.intp)  # cycle
    with pytest.raises(ValueError):
        postorder(parent)
