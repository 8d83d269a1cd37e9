"""Reference oracles: a from-scratch sparse Cholesky and the textbook
triangular substitutions.

The library factorizes with SuperLU (:func:`repro.sparse.cholesky`) and
solves triangles with SuperLU or dense LAPACK
(:func:`repro.sparse.solve_lower` / :func:`repro.sparse.solve_upper`);
these pure-Python loops are kept beside the tests only, as the clear,
exact references those fast paths are checked against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.sparse import CholeskyFactor, NotPositiveDefiniteError
from repro.sparse.canonical import permute_symmetric
from repro.sparse.etree import elimination_tree, row_pattern
from repro.sparse.ordering import compute_ordering
from repro.util import check_lower_triangular, check_permutation, cholesky_flops


def native_cholesky(
    a: sp.spmatrix,
    ordering: str = "nd",
    perm: np.ndarray | None = None,
    coords: np.ndarray | None = None,
) -> CholeskyFactor:
    """``a[perm][:, perm] = L L^T`` through the up-looking row Cholesky,
    driven by the elimination tree; same ordering rules as
    :func:`repro.sparse.cholesky`.  Its stored pattern is the symbolic
    one (no value drops)."""
    n = a.shape[0]
    if perm is None:
        perm = compute_ordering(a, method=ordering, coords=coords)
    else:
        perm = check_permutation(perm, n, "perm")
    l = _up_looking(permute_symmetric(a, perm, format="csc"))
    return CholeskyFactor(
        l=l, perm=perm, flops=cholesky_flops(np.diff(l.indptr)), engine="native"
    )


def _up_looking(ap: sp.csc_matrix) -> sp.csc_matrix:
    """Up-looking row Cholesky of the already permuted *ap*.

    Row *i* of ``L`` solves ``L[:i, :i] y = A[:i, i]`` on the row pattern
    given by the etree row subtree, then the diagonal entry closes the row.
    """
    n = ap.shape[0]
    a_lower = sp.tril(ap, format="csr")
    parent = elimination_tree(a_lower)

    indptr_a, indices_a, data_a = a_lower.indptr, a_lower.indices, a_lower.data
    row_cols: list[np.ndarray] = []
    row_vals: list[np.ndarray] = []
    diag = np.zeros(n, dtype=np.float64)
    x = np.zeros(n, dtype=np.float64)

    for i in range(n):
        patt = row_pattern(a_lower, parent, i)
        # Scatter row i of A (below-diagonal part + diagonal).
        aii = 0.0
        for t in range(indptr_a[i], indptr_a[i + 1]):
            j = indices_a[t]
            if j == i:
                aii = data_a[t]
            else:
                x[j] = data_a[t]
        # Forward substitution restricted to the row pattern.
        for j in patt:
            cols_j = row_cols[j]
            if cols_j.size:
                x[j] -= row_vals[j] @ x[cols_j]
            x[j] /= diag[j]
        vals = x[patt]
        d2 = aii - float(vals @ vals)
        if d2 <= 0.0:
            # Clean workspace before raising.
            x[patt] = 0.0
            raise NotPositiveDefiniteError(
                f"non-positive pivot {d2:.3e} at column {i}"
            )
        diag[i] = np.sqrt(d2)
        row_cols.append(patt)
        row_vals.append(vals.copy())
        x[patt] = 0.0

    # Assemble CSR rows (below-diagonal) + diagonal, convert to CSC.
    nnz = sum(c.size for c in row_cols) + n
    indptr = np.zeros(n + 1, dtype=np.intp)
    indices = np.empty(nnz, dtype=np.intp)
    data = np.empty(nnz, dtype=np.float64)
    pos = 0
    for i in range(n):
        c = row_cols[i]
        k = c.size
        indices[pos : pos + k] = c
        data[pos : pos + k] = row_vals[i]
        indices[pos + k] = i
        data[pos + k] = diag[i]
        pos += k + 1
        indptr[i + 1] = pos
    l_csr = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    l = l_csr.tocsc()
    l.sort_indices()
    return l


def forward_python(l: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Column-oriented forward substitution solving ``L x = b`` (*b* 2-D)."""
    lc = l.tocsc()
    check_lower_triangular(lc, "L")
    indptr, indices, data = lc.indptr, lc.indices, lc.data
    x = b.astype(np.float64, copy=True)
    n = lc.shape[0]
    for j in range(n):
        start, end = indptr[j], indptr[j + 1]
        if start == end or indices[start] != j:
            raise ValueError(f"factor has a structurally zero diagonal at {j}")
        x[j] /= data[start]
        rows = indices[start + 1 : end]
        if rows.size:
            x[rows] -= np.outer(data[start + 1 : end], x[j])
    return x


def backward_python(l: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Backward substitution solving ``L^T x = b`` with the *lower* factor
    (*b* 2-D)."""
    lc = l.tocsc()
    check_lower_triangular(lc, "L")
    indptr, indices, data = lc.indptr, lc.indices, lc.data
    x = b.astype(np.float64, copy=True)
    n = lc.shape[0]
    for j in range(n - 1, -1, -1):
        start, end = indptr[j], indptr[j + 1]
        if start == end or indices[start] != j:
            raise ValueError(f"factor has a structurally zero diagonal at {j}")
        rows = indices[start + 1 : end]
        if rows.size:
            x[j] -= data[start + 1 : end] @ x[rows]
        x[j] /= data[start]
    return x
