"""Shared test fixtures and matrix generators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

# The tier-1 verdict is a function of the commit, not of the draw: every
# property test sees the same examples on every run, and no example database
# carries failures from one checkout into the next.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: full driver runs that take seconds rather than milliseconds"
    )


def random_spd(n: int, density: float = 0.05, seed: int = 0) -> sp.csr_matrix:
    """Random sparse SPD matrix: symmetric pattern + diagonal dominance."""
    a = sp.random(n, n, density=density, random_state=seed)
    a = a + a.T + sp.eye(n) * (n * 0.5 + 1.0)
    return sp.csr_matrix(a)


def laplacian_1d(n: int, neumann: bool = False) -> sp.csr_matrix:
    """1-D Laplacian; with *neumann* the matrix is singular (kernel = const)."""
    main = np.full(n, 2.0)
    if neumann:
        main[0] = main[-1] = 1.0
    off = np.full(n - 1, -1.0)
    return sp.csr_matrix(sp.diags([off, main, off], [-1, 0, 1]))


def laplacian_2d(nx: int, ny: int) -> sp.csr_matrix:
    """2-D 5-point Laplacian on an nx-by-ny grid (Dirichlet, SPD)."""
    ix = sp.eye(nx)
    iy = sp.eye(ny)
    lx = laplacian_1d(nx)
    ly = laplacian_1d(ny)
    return sp.csr_matrix(sp.kron(iy, lx) + sp.kron(ly, ix))


def grid_coords(nx: int, ny: int) -> np.ndarray:
    """Coordinates matching :func:`laplacian_2d`'s ordering."""
    xs, ys = np.meshgrid(np.arange(nx), np.arange(ny))
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
