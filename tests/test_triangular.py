"""Tests for triangular solves (dense RHS paths + sparse-RHS Gilbert–Peierls).

Parametrized tests run :func:`solve_lower` / :func:`solve_upper` down both
sides of the dense cutoff (``dense``, ``superlu``), at the default cutoff
(``auto``), and the pure-Python substitutions of
:mod:`tests.reference_factor` (``python``)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    TriangularSolver,
    cholesky,
    solve_lower,
    solve_upper,
    spsolve_lower_sparse,
)
from repro.sparse import triangular as tri
from tests.conftest import laplacian_2d, random_spd
from tests.reference_factor import backward_python, forward_python

BACKENDS = ["python", "superlu", "dense", "auto"]

#: ``DEFAULT_DENSE_CUTOFF`` that sends a solve down each side of the dispatch.
_CUTOFF = {"superlu": 0, "dense": 10_000}


def _python(solve):
    def run(l, b):
        b = np.asarray(b, dtype=np.float64)
        x = solve(l, b if b.ndim == 2 else b[:, None])
        return x if b.ndim == 2 else x[:, 0]

    return run


def _solvers(method, monkeypatch):
    """``(lower, upper)`` solve functions of one backend."""
    if method == "python":
        return _python(forward_python), _python(backward_python)
    if method in _CUTOFF:
        monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", _CUTOFF[method])
    return solve_lower, solve_upper


def _factor(n=60, seed=0):
    return cholesky(random_spd(n, density=0.08, seed=seed), ordering="amd").l


@pytest.mark.parametrize("method", BACKENDS)
def test_solve_lower_matrix_rhs(method, rng, monkeypatch):
    lower, _ = _solvers(method, monkeypatch)
    l = _factor()
    b = rng.standard_normal((60, 5))
    x = lower(l, b)
    assert np.allclose(l @ x, b, atol=1e-9)


@pytest.mark.parametrize("method", BACKENDS)
def test_solve_upper_matrix_rhs(method, rng, monkeypatch):
    _, upper = _solvers(method, monkeypatch)
    l = _factor()
    b = rng.standard_normal((60, 5))
    x = upper(l, b)
    assert np.allclose(l.T @ x, b, atol=1e-9)


@pytest.mark.parametrize("method", BACKENDS)
def test_solve_vector_rhs_shape(method, rng, monkeypatch):
    lower, _ = _solvers(method, monkeypatch)
    l = _factor()
    b = rng.standard_normal(60)
    x = lower(l, b)
    assert x.shape == (60,)
    assert np.allclose(l @ x, b, atol=1e-9)


@pytest.mark.parametrize("method", BACKENDS)
def test_solve_upper_vector_rhs_shape(method, rng, monkeypatch):
    _, upper = _solvers(method, monkeypatch)
    l = _factor()
    b = rng.standard_normal(60)
    x = upper(l, b)
    assert x.shape == (60,)
    assert np.allclose(l.T @ x, b, atol=1e-9)


def test_backends_agree(rng, monkeypatch):
    l = _factor(80, seed=5)
    b = rng.standard_normal((80, 3))
    xs = [forward_python(l, b)]
    for method in ("superlu", "dense"):
        monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", _CUTOFF[method])
        xs.append(solve_lower(l, b))
    for x in xs[1:]:
        assert np.allclose(x, xs[0], atol=1e-9)


def test_upper_backends_agree(rng, monkeypatch):
    l = _factor(80, seed=6)
    b = rng.standard_normal((80, 3))
    xs = [backward_python(l, b)]
    for method in ("superlu", "dense"):
        monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", _CUTOFF[method])
        xs.append(solve_upper(l, b))
    for x in xs[1:]:
        assert np.allclose(x, xs[0], atol=1e-9)


def test_rhs_dimension_mismatch():
    l = _factor()
    with pytest.raises(ValueError, match="rows"):
        solve_lower(l, np.ones((59, 2)))


def test_python_backend_rejects_zero_diagonal():
    l = sp.csc_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        forward_python(l, np.ones((2, 1)))


def test_rejects_non_lower_triangular():
    a = sp.csc_matrix(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="above the diagonal"):
        forward_python(a, np.ones((2, 1)))


def test_triangular_solver_cached_reuse(rng):
    l = _factor()
    solver = TriangularSolver(l)
    b1 = rng.standard_normal(60)
    b2 = rng.standard_normal((60, 2))
    assert np.allclose(l @ solver.solve(b1), b1, atol=1e-9)
    assert np.allclose(l.T @ solver.solve(b2, transpose=True), b2, atol=1e-9)


def test_spsolve_lower_sparse_matches_dense(rng):
    l = _factor(70, seed=2)
    b = sp.random(70, 8, density=0.07, random_state=3, format="csc")
    y, flops = spsolve_lower_sparse(l, b)
    dense = forward_python(l, b.toarray())
    assert np.allclose(y.toarray(), dense, atol=1e-9)
    assert flops > 0


def test_spsolve_sparse_rhs_zero_column():
    l = _factor(20, seed=1)
    b = sp.csc_matrix((20, 3))  # all-zero RHS
    y, flops = spsolve_lower_sparse(l, b)
    assert y.nnz == 0
    assert flops == 0


def test_spsolve_reach_is_sparse():
    """With a tridiagonal factor, solving e_k touches only rows >= k."""
    n = 30
    l = cholesky(laplacian_2d(1, n) + sp.eye(n) * 0, ordering="natural").l
    b = sp.csc_matrix(([1.0], ([n - 2], [0])), shape=(n, 1))
    y, _ = spsolve_lower_sparse(l, b)
    assert set(y.tocoo().row.tolist()) <= {n - 2, n - 1}


def test_spsolve_flops_less_than_full_solve():
    """Sparse-RHS flops must be far below the dense-RHS equivalent for a
    local RHS (this is the whole point of the augmented approach)."""
    l = _factor(100, seed=4)
    b = sp.csc_matrix(([1.0], ([99], [0])), shape=(100, 1))
    _, flops = spsolve_lower_sparse(l, b)
    assert flops <= 2.0 * l.nnz  # full solve would be ~2 nnz(L)


def test_spsolve_rejects_wrong_rows():
    l = _factor(10, seed=6)
    with pytest.raises(ValueError):
        spsolve_lower_sparse(l, sp.csc_matrix((9, 1)))


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    m=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_forward_backward_roundtrip(n, m, seed):
    """x == L^{-T}(L^{-1}(L L^T x)) for random SPD factors."""
    l = cholesky(random_spd(n, density=min(1.0, 5.0 / n), seed=seed)).l
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    b = (l @ (l.T @ x))
    y = forward_python(l, b)
    x2 = backward_python(l, y)
    assert np.allclose(x2, x, atol=1e-7)


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=25),
    seed=st.integers(min_value=0, max_value=10_000),
    density=st.floats(min_value=0.05, max_value=0.5),
)
def test_property_spsolve_matches_dense(n, seed, density):
    l = cholesky(random_spd(n, density=min(1.0, 5.0 / n), seed=seed)).l
    b = sp.random(n, 3, density=density, random_state=seed, format="csc")
    y, _ = spsolve_lower_sparse(l, b)
    assert np.allclose(l @ y.toarray(), b.toarray(), atol=1e-8)


# ---------------------------------------------------------------------------
# solver memoization (superlu path) and the dense cutoff
# ---------------------------------------------------------------------------


def test_superlu_solver_memoized_per_factor(rng, monkeypatch):
    monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", 0)
    l = _factor(40, seed=7)
    b = rng.standard_normal((40, 2))
    with tri._solver_cache_lock:
        tri._solver_cache.clear()
    x1 = solve_lower(l, b)
    solver_first = tri._solver_cache[id(l)][2]
    x2 = solve_lower(l, b)
    assert tri._solver_cache[id(l)][2] is solver_first  # reused, not rebuilt
    assert np.array_equal(x1, x2)
    # A different factor object gets its own entry.
    l2 = _factor(40, seed=8)
    solve_upper(l2, b)
    assert tri._solver_cache[id(l2)][2] is not solver_first


def test_cached_solver_identity_and_equivalence(rng):
    from repro.sparse import cached_triangular_solver

    l = _factor(30, seed=3)
    s1 = cached_triangular_solver(l)
    s2 = cached_triangular_solver(l)
    assert s1 is s2
    b = rng.standard_normal(30)
    assert np.allclose(s1.solve(b), TriangularSolver(l).solve(b))


def test_cached_solver_rebuilds_on_value_mutation(rng, monkeypatch):
    """In-place value mutation must rebuild, never return stale numerics."""
    from repro.sparse import cached_triangular_solver

    monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", 0)
    l = _factor(25, seed=4)
    b = rng.standard_normal(25)
    s1 = cached_triangular_solver(l)
    l.data *= 2.0
    s2 = cached_triangular_solver(l)
    assert s2 is not s1
    x = solve_lower(l, b)
    assert np.allclose(l @ x, b, atol=1e-9)  # solved against the NEW values


def test_solver_cache_is_bounded():
    from repro.sparse.triangular import SOLVER_CACHE_MAX_ENTRIES, cached_triangular_solver

    with tri._solver_cache_lock:
        tri._solver_cache.clear()
    keep = [_factor(12, seed=100 + i) for i in range(SOLVER_CACHE_MAX_ENTRIES + 5)]
    for l in keep:
        cached_triangular_solver(l)
    assert len(tri._solver_cache) == SOLVER_CACHE_MAX_ENTRIES
    # The most recent factors survived (LRU evicts the oldest).
    assert id(keep[-1]) in tri._solver_cache
    assert id(keep[0]) not in tri._solver_cache


def test_auto_backend_respects_cutoff(rng, monkeypatch):
    """Orders up to ``DEFAULT_DENSE_CUTOFF`` solve through dense LAPACK,
    larger ones through SuperLU — observable via the solver cache."""
    l = _factor(25, seed=9)
    b = rng.standard_normal((25, 2))
    with tri._solver_cache_lock:
        tri._solver_cache.clear()
    monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", 25)
    solve_lower(l, b)
    assert id(l) not in tri._solver_cache  # dense path: no SuperLU built
    monkeypatch.setattr(tri, "DEFAULT_DENSE_CUTOFF", 24)
    solve_lower(l, b)
    assert id(l) in tri._solver_cache  # superlu path: solver memoized
