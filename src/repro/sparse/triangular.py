"""Triangular solves with sparse factors.

Provides the three TRSM flavours the paper's algorithm needs:

* :func:`solve_lower` / :func:`solve_upper` — sparse factor, **dense** RHS
  (the classic TRSM of §3.2).  Factors of order up to
  :data:`DEFAULT_DENSE_CUTOFF` are densified and solved by LAPACK
  ``trsm`` (SuperLU setup dominates at small orders); larger ones go
  through SuperLU's compiled solve on the zero-fill factorization of the
  triangle.
* :class:`TriangularSolver` — caches the SuperLU object so repeated solves
  with one factor (FETI iterations) pay the analysis once.  The module-level
  SuperLU path amortizes too: :func:`cached_triangular_solver` memoizes
  the solver per factor object in a small LRU, so repeated
  :func:`solve_lower`/:func:`solve_upper` calls with the same factor pay the
  SuperLU analysis once instead of per call.
* :func:`spsolve_lower_sparse` — sparse factor, **sparse** RHS via
  Gilbert–Peierls reach + numeric scatter; returns the exact FLOPs
  performed.  This is what makes the augmented-factorization Schur
  complement (PARDISO stand-in) cheap for very sparse problems.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import get_tracer
from repro.util import check_lower_triangular, check_sparse_square, require

#: Factor order up to which a solve densifies into LAPACK: below it
#: SuperLU's setup costs more than the dense solve.
DEFAULT_DENSE_CUTOFF = 256


def solve_lower(l: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L x = b`` with sparse lower-triangular *l* and dense *b*."""
    return _solve_triangular(l, b, lower=True)


def solve_upper(l: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L^T x = b`` given the *lower* factor *l* and dense *b*."""
    return _solve_triangular(l, b, lower=False)


def _solve_triangular(l: sp.spmatrix, b: np.ndarray, lower: bool) -> np.ndarray:
    n = check_sparse_square(l, "L")
    b = np.asarray(b, dtype=np.float64)
    squeeze = b.ndim == 1
    if squeeze:
        b = b[:, None]
    require(b.shape[0] == n, f"RHS has {b.shape[0]} rows, factor has order {n}")
    method = "dense" if n <= DEFAULT_DENSE_CUTOFF else "superlu"

    with get_tracer().span(
        "sparse.trsm", n=n, nrhs=int(b.shape[1]), method=method, lower=lower
    ):
        if method == "dense":
            x = scipy.linalg.solve_triangular(
                l.toarray(), b, lower=True, trans="N" if lower else "T"
            )
        else:  # amortized per factor object
            x = cached_triangular_solver(l).solve(b, transpose=not lower)
    return x[:, 0] if squeeze else x


class TriangularSolver:
    """Cached compiled solver for one sparse lower-triangular factor.

    SuperLU factorizes the triangle with the natural ordering — zero fill,
    cheap setup — and its compiled triangular solves are then reused for any
    number of right-hand sides, forward (``L x = b``) or transposed
    (``L^T x = b``).
    """

    def __init__(self, l: sp.spmatrix) -> None:
        n = check_sparse_square(l, "L")
        self.n = n
        self.nnz = l.nnz
        lc = l.tocsc()
        check_lower_triangular(lc, "L")
        self._lu = spla.splu(
            lc,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"Equil": False, "SymmetricMode": False, "ColPerm": "NATURAL"},
        )

    def solve(self, b: np.ndarray, transpose: bool = False) -> np.ndarray:
        """Solve ``L x = b`` (or ``L^T x = b`` when *transpose*)."""
        b = np.asarray(b, dtype=np.float64)
        return self._lu.solve(b, trans="T" if transpose else "N")


#: Bound of the per-factor solver memo (each entry holds one SuperLU object).
SOLVER_CACHE_MAX_ENTRIES = 32

_solver_cache: OrderedDict[int, tuple[weakref.ref, np.ndarray, TriangularSolver]] = (
    OrderedDict()
)
_solver_cache_lock = threading.Lock()


def cached_triangular_solver(l: sp.spmatrix) -> TriangularSolver:
    """Memoized :class:`TriangularSolver` for *l* (small thread-safe LRU).

    Keyed on the factor *object's* identity, guarded by a weak reference (a
    recycled ``id`` after garbage collection can never alias a stale solver)
    and a snapshot of the stored values: mutating ``l.data`` in place simply
    rebuilds the solver, never returns stale numerics.  The value check is a
    flat array compare — O(nnz), negligible next to both the SuperLU
    analysis it avoids and the solve that follows.  This is what lets the
    module-level ``solve_lower``/``solve_upper`` SuperLU path pay the
    analysis once per factor instead of once per call.
    """
    if not sp.issparse(l) or l.format not in ("csc", "csr"):
        return TriangularSolver(l)  # exotic formats: no stable value buffer
    key = id(l)
    with _solver_cache_lock:
        entry = _solver_cache.get(key)
        if entry is not None:
            ref, data_snapshot, solver = entry
            if (
                ref() is l
                and data_snapshot.shape == l.data.shape
                and np.array_equal(data_snapshot, l.data)
            ):
                _solver_cache.move_to_end(key)
                return solver
            del _solver_cache[key]  # stale: id recycled or values mutated
    solver = TriangularSolver(l)  # build outside the lock — splu can be slow

    def _evict_on_death(dead_ref: weakref.ref, _key: int = key) -> None:
        # Free the SuperLU object + value snapshot as soon as the factor
        # dies, instead of pinning them until LRU churn evicts the entry.
        with _solver_cache_lock:
            entry = _solver_cache.get(_key)
            if entry is not None and entry[0] is dead_ref:
                del _solver_cache[_key]

    with _solver_cache_lock:
        _solver_cache[key] = (weakref.ref(l, _evict_on_death), l.data.copy(), solver)
        _solver_cache.move_to_end(key)
        while len(_solver_cache) > SOLVER_CACHE_MAX_ENTRIES:
            _solver_cache.popitem(last=False)
    return solver


def spsolve_lower_sparse(
    l: sp.spmatrix, b: sp.spmatrix
) -> tuple[sp.csc_matrix, float]:
    """Solve ``L Y = B`` with sparse *l* (lower) and sparse *b* columns.

    Gilbert–Peierls: for each RHS column, a DFS over the graph of ``L``
    computes the reach (the nonzero pattern of the solution column in
    topological order), then the numeric phase only touches those entries.

    Returns ``(Y, flops)`` with *Y* sparse CSC and *flops* the operation
    count of the numeric phase — the quantity the simulated cost model
    charges for PARDISO-style sparse Schur assembly.

    The numeric phase processes the *structural* reach: entries whose value
    happens to be exactly zero are kept (and their work counted) rather than
    value-pruned.  This keeps the pattern of ``Y`` and the reported flops a
    pure function of the patterns of ``L`` and ``B`` — so the executed cost
    agrees with the pattern-only estimator of
    :mod:`repro.sparse.schur_estimate` and stays identical across a
    fingerprint group of :mod:`repro.batch` regardless of value jitter.
    """
    n = check_sparse_square(l, "L")
    lc = l.tocsc()
    check_lower_triangular(lc, "L")
    indptr, indices, data = lc.indptr, lc.indices, lc.data
    # Diagonal-first check once.
    for j in range(n):
        if indptr[j] == indptr[j + 1] or indices[indptr[j]] != j:
            raise ValueError(f"factor has a structurally zero diagonal at {j}")

    bc = b.tocsc()
    require(bc.shape[0] == n, f"RHS has {bc.shape[0]} rows, factor has order {n}")
    m = bc.shape[1]

    out_indptr = [0]
    out_indices: list[np.ndarray] = []
    out_data: list[np.ndarray] = []
    flops = 0.0

    visited = np.zeros(n, dtype=bool)
    x = np.zeros(n, dtype=np.float64)

    for col in range(m):
        b_rows = bc.indices[bc.indptr[col] : bc.indptr[col + 1]]
        b_vals = bc.data[bc.indptr[col] : bc.indptr[col + 1]]
        topo = _reach(indptr, indices, b_rows, visited)
        x[b_rows] = b_vals
        keep_rows = []
        keep_vals = []
        for j in topo:
            xj = x[j] / data[indptr[j]]
            rows = indices[indptr[j] + 1 : indptr[j + 1]]
            if rows.size:
                x[rows] -= data[indptr[j] + 1 : indptr[j + 1]] * xj
            flops += 2.0 * rows.size + 1.0
            keep_rows.append(j)
            keep_vals.append(xj)
            x[j] = 0.0  # reset workspace while we are here
            visited[j] = False
        # x entries of rows updated but outside topo cannot exist: every
        # updated row is in the reach by construction.
        order = np.argsort(keep_rows)
        rows_arr = np.asarray(keep_rows, dtype=np.intp)[order]
        vals_arr = np.asarray(keep_vals, dtype=np.float64)[order]
        out_indices.append(rows_arr)
        out_data.append(vals_arr)
        out_indptr.append(out_indptr[-1] + rows_arr.size)

    y = sp.csc_matrix(
        (
            np.concatenate(out_data) if out_data else np.empty(0),
            np.concatenate(out_indices) if out_indices else np.empty(0, dtype=np.intp),
            np.asarray(out_indptr, dtype=np.intp),
        ),
        shape=(n, m),
    )
    return y, flops


def _reach(
    indptr: np.ndarray,
    indices: np.ndarray,
    seeds: np.ndarray,
    visited: np.ndarray,
) -> list[int]:
    """Topologically-ordered reach of *seeds* in the DAG of a lower factor."""
    topo: list[int] = []
    for s in seeds:
        if visited[s]:
            continue
        # Iterative DFS with an explicit (node, next-edge-offset) stack.
        stack: list[list[int]] = [[int(s), int(indptr[s]) + 1]]
        visited[s] = True
        while stack:
            node, ptr = stack[-1]
            end = indptr[node + 1]
            advanced = False
            while ptr < end:
                child = indices[ptr]
                ptr += 1
                if not visited[child]:
                    visited[child] = True
                    stack[-1][1] = ptr
                    stack.append([int(child), int(indptr[child]) + 1])
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                topo.append(node)
    topo.reverse()
    return topo


__all__ = [
    "solve_lower",
    "solve_upper",
    "TriangularSolver",
    "cached_triangular_solver",
    "SOLVER_CACHE_MAX_ENTRIES",
    "DEFAULT_DENSE_CUTOFF",
    "spsolve_lower_sparse",
]
