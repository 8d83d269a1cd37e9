"""Tests for the numeric Cholesky factorization.

Parametrized tests run the library's SuperLU-backed :func:`cholesky` and
the up-looking reference (``native``, :mod:`tests.reference_factor`)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import NotPositiveDefiniteError, cholesky
from tests.conftest import grid_coords, laplacian_1d, laplacian_2d, random_spd
from tests.reference_factor import native_cholesky

ENGINES = ["native", "superlu"]
ORDERINGS = ["natural", "amd", "rcm", "nd"]


def _factorize(engine, a, **kwargs):
    return native_cholesky(a, **kwargs) if engine == "native" else cholesky(a, **kwargs)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("ordering", ORDERINGS)
def test_reconstruction(engine, ordering):
    a = random_spd(90, density=0.05, seed=4)
    f = _factorize(engine, a, ordering=ordering)
    ap = a[f.perm][:, f.perm].toarray()
    assert np.allclose((f.l @ f.l.T).toarray(), ap, atol=1e-9 * 90)


@pytest.mark.parametrize("engine", ENGINES)
def test_solve_roundtrip(engine, rng):
    a = laplacian_2d(9, 9)
    f = _factorize(engine, a)
    b = rng.standard_normal(a.shape[0])
    x = f.solve(b)
    assert np.allclose(a @ x, b, atol=1e-9)


@pytest.mark.parametrize("engine", ENGINES)
def test_solve_matrix_rhs(engine, rng):
    a = laplacian_2d(6, 7)
    f = _factorize(engine, a)
    b = rng.standard_normal((a.shape[0], 4))
    x = f.solve(b)
    assert np.allclose(a @ x, b, atol=1e-9)


def test_engines_agree():
    a = random_spd(70, density=0.07, seed=9)
    perm = np.random.default_rng(1).permutation(70)
    f1 = native_cholesky(a, perm=perm)
    f2 = cholesky(a, perm=perm)
    assert np.allclose(f1.l.toarray(), f2.l.toarray(), atol=1e-9)
    assert f1.nnz == f2.nnz


@pytest.mark.parametrize("ordering", ORDERINGS)
def test_engines_agree_per_ordering(ordering):
    """Both factorizations pick the same fill-reducing permutation and
    produce the same factor under every ordering."""
    a = random_spd(60, density=0.08, seed=11)
    f1 = native_cholesky(a, ordering=ordering)
    f2 = cholesky(a, ordering=ordering)
    assert np.array_equal(f1.perm, f2.perm)
    assert np.allclose(f1.l.toarray(), f2.l.toarray(), atol=1e-9)
    assert f1.nnz == f2.nnz


def test_explicit_perm_used():
    a = random_spd(20, seed=2)
    perm = np.arange(20)[::-1].copy()
    f = cholesky(a, perm=perm)
    assert np.array_equal(f.perm, perm)


def test_bad_perm_rejected():
    a = random_spd(10)
    with pytest.raises(ValueError):
        cholesky(a, perm=np.zeros(10, dtype=int))
    with pytest.raises(ValueError):
        cholesky(a, perm=np.arange(9))


@pytest.mark.parametrize("engine", ENGINES)
def test_not_positive_definite_raises(engine):
    a = laplacian_1d(12, neumann=True)  # singular
    with pytest.raises(NotPositiveDefiniteError):
        _factorize(engine, a, ordering="natural")


@pytest.mark.parametrize("engine", ENGINES)
def test_indefinite_raises(engine):
    a = sp.csr_matrix(np.diag([1.0, -1.0, 2.0]))
    with pytest.raises(NotPositiveDefiniteError):
        _factorize(engine, a, ordering="natural")


def test_factor_is_lower_triangular():
    a = random_spd(40, seed=8)
    f = cholesky(a, ordering="amd")
    coo = f.l.tocoo()
    assert np.all(coo.row >= coo.col)


def test_diagonal_first_in_csc_columns():
    a = random_spd(30, seed=3)
    f = cholesky(a)
    lc = f.l.tocsc()
    for j in range(30):
        assert lc.indices[lc.indptr[j]] == j


def test_logdet_matches_dense():
    a = random_spd(25, seed=6)
    f = cholesky(a)
    sign, logdet = np.linalg.slogdet(a.toarray())
    assert sign > 0
    assert np.isclose(f.logdet(), logdet, rtol=1e-10)


def test_flops_scale_with_fill():
    dense = sp.csr_matrix(np.ones((30, 30)) + 30 * np.eye(30))
    sparse = laplacian_1d(30)
    f_dense = cholesky(dense, ordering="natural")
    f_sparse = cholesky(sparse, ordering="natural")
    assert f_dense.flops > 10 * f_sparse.flops


def test_coords_forwarded_to_nd():
    a = laplacian_2d(8, 8)
    f = cholesky(a, ordering="nd", coords=grid_coords(8, 8))
    assert np.allclose(
        (f.l @ f.l.T).toarray(), a[f.perm][:, f.perm].toarray(), atol=1e-9
    )


def test_solve_permuted_consistent(rng):
    a = random_spd(35, seed=10)
    f = cholesky(a, ordering="amd")
    b = rng.standard_normal(35)
    xp = f.solve_permuted(b[f.perm])
    x = np.empty_like(xp)
    x[f.perm] = xp
    assert np.allclose(a @ x, b, atol=1e-8)


def test_1x1_matrix():
    a = sp.csr_matrix(np.array([[4.0]]))
    f = native_cholesky(a, ordering="natural")
    assert np.isclose(f.l[0, 0], 2.0)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=35),
    seed=st.integers(min_value=0, max_value=10_000),
    engine=st.sampled_from(ENGINES),
)
def test_property_cholesky_reconstructs(n, seed, engine):
    a = random_spd(n, density=min(1.0, 5.0 / n), seed=seed)
    f = _factorize(engine, a, ordering="amd")
    ap = a[f.perm][:, f.perm].toarray()
    assert np.allclose((f.l @ f.l.T).toarray(), ap, atol=1e-8 * max(n, 1))


@settings(max_examples=15, deadline=None)
@given(
    nx=st.integers(min_value=2, max_value=7),
    ny=st.integers(min_value=2, max_value=7),
)
def test_property_laplacian_solve(nx, ny):
    a = laplacian_2d(nx, ny)
    f = cholesky(a)
    b = np.ones(a.shape[0])
    x = f.solve(b)
    assert np.allclose(a @ x, b, atol=1e-9)
