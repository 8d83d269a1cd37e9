"""Symbolic Cholesky factorization.

Computes, without touching numerical values:

* the elimination tree,
* per-column nonzero counts of the factor ``L``,
* (optionally) the full row-wise pattern of ``L``,
* the factorization FLOP count,
* fundamental supernodes (columns with identical below-diagonal pattern),
  used by the pruning optimization in :mod:`repro.core.trsm_split` the same
  way CHOLMOD's supernodal factorization packs dense rows.

This is the "initialization" stage of the paper's three-stage FETI solver
(§2.2): performed once, reused across repeated numeric factorizations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.sparse.etree import elimination_tree, row_pattern
from repro.util import cholesky_flops, check_sparse_square, require


def pattern_digest(a: sp.spmatrix) -> str:
    """Hex digest of a sparsity pattern (shape + sorted CSC structure).

    The one canonical pattern-hashing routine — reused by the batch
    fingerprints (:mod:`repro.batch.fingerprint`) and the symbolic-pattern
    memo of :mod:`repro.sparse.cholesky` so the implementations cannot
    drift apart.
    """
    require(sp.issparse(a), "pattern_digest needs a sparse matrix")
    ac = a.tocsc()
    ac.sort_indices()
    h = hashlib.sha256()
    for arr in (np.asarray(ac.shape), ac.indptr, ac.indices):
        h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes())
        h.update(b"|")
    return h.hexdigest()


@dataclass(frozen=True)
class SymbolicFactor:
    """Result of the symbolic analysis of ``A = L L^T``.

    Attributes
    ----------
    n:
        Matrix order.
    parent:
        Elimination tree (``-1`` marks roots).
    col_counts:
        Number of nonzeros per column of ``L`` including the diagonal.
    nnz_l:
        Total nonzeros of ``L``.
    flops:
        Estimated factorization FLOPs.
    row_indptr / row_indices:
        CSR-style row pattern of ``L`` (below-diagonal columns per row),
        present only when ``with_pattern=True`` was requested.
    supernodes:
        Start columns of fundamental supernodes (ascending, ends with ``n``).
    """

    n: int
    parent: np.ndarray
    col_counts: np.ndarray
    nnz_l: int
    flops: float
    row_indptr: np.ndarray | None = None
    row_indices: np.ndarray | None = None
    supernodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    def row(self, i: int) -> np.ndarray:
        """Below-diagonal column pattern of row *i* of ``L`` (sorted)."""
        if self.row_indptr is None or self.row_indices is None:
            raise ValueError("symbolic factor was computed without the full pattern")
        return self.row_indices[self.row_indptr[i] : self.row_indptr[i + 1]]

    def pattern_digest(self) -> str:
        """Stable hex digest of the factor pattern — the hashable view used
        as a cache key by :mod:`repro.batch`.

        Hashes the full row pattern when present, otherwise the elimination
        tree plus the column counts (which determine the pattern for a given
        matrix but are cheaper to store).
        """
        h = hashlib.sha256()
        for arr in (
            np.asarray([self.n], dtype=np.int64),
            np.asarray(self.parent, dtype=np.int64),
            np.asarray(self.col_counts, dtype=np.int64),
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
            h.update(b"|")
        if self.row_indptr is not None and self.row_indices is not None:
            for arr in (self.row_indptr, self.row_indices):
                h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes())
                h.update(b"|")
        return h.hexdigest()


def symbolic_factorize(a: sp.spmatrix, with_pattern: bool = True) -> SymbolicFactor:
    """Symbolic Cholesky analysis of the symmetric matrix *a*.

    When *with_pattern* is set the full row pattern of ``L`` is stored
    (memory O(nnz(L))); otherwise only column counts are kept.
    """
    n = check_sparse_square(a, "a")
    a_lower = sp.tril(a, format="csr")
    parent = elimination_tree(a_lower)

    col_counts = np.ones(n, dtype=np.int64)  # diagonal entries
    indptr_list: list[int] = [0]
    rows: list[np.ndarray] = []
    nnz_below = 0
    for i in range(n):
        patt = row_pattern(a_lower, parent, i)
        col_counts[patt] += 1
        nnz_below += patt.size
        if with_pattern:
            rows.append(patt)
            indptr_list.append(nnz_below)

    nnz_l = int(col_counts.sum())
    flops = cholesky_flops(col_counts)
    supernodes = _fundamental_supernodes(parent, col_counts)
    if with_pattern:
        row_indices = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
        )
        row_indptr = np.asarray(indptr_list, dtype=np.intp)
        return SymbolicFactor(
            n=n,
            parent=parent,
            col_counts=col_counts,
            nnz_l=nnz_l,
            flops=flops,
            row_indptr=row_indptr,
            row_indices=row_indices,
            supernodes=supernodes,
        )
    return SymbolicFactor(
        n=n,
        parent=parent,
        col_counts=col_counts,
        nnz_l=nnz_l,
        flops=flops,
        supernodes=supernodes,
    )


def _fundamental_supernodes(parent: np.ndarray, col_counts: np.ndarray) -> np.ndarray:
    """Start columns of fundamental supernodes.

    Column ``j+1`` continues the supernode of ``j`` iff ``parent[j] == j+1``
    and ``col_counts[j] == col_counts[j+1] + 1`` (identical structure below
    the diagonal, shifted by one).
    """
    n = parent.size
    if n == 0:
        return np.asarray([0], dtype=np.intp)
    breaks = (parent[:-1] != np.arange(1, n)) | (col_counts[:-1] != col_counts[1:] + 1)
    return np.concatenate(([0], np.flatnonzero(breaks) + 1, [n])).astype(np.intp)


def symbolic_from_factor(l: sp.spmatrix) -> SymbolicFactor:
    """Recover the symbolic description from an existing factor's pattern.

    The cheap path used by the batch pattern cache: no elimination-tree
    traversal of ``A`` is needed because the factor already *is* the filled
    pattern — the etree parent of column ``j`` is the first below-diagonal
    row of column ``j`` of ``L``, column counts come straight from the CSC
    pointers, and the row pattern is the CSR view minus the diagonal.
    """
    lc = l.tocsc()
    lc.sort_indices()
    n = check_sparse_square(lc, "l")
    return symbolic_from_pattern(lc.indptr, lc.indices, n)


def symbolic_from_pattern(
    indptr: np.ndarray, indices: np.ndarray, n: int
) -> SymbolicFactor:
    """:func:`symbolic_from_factor` from raw sorted-CSC pattern arrays.

    Used where no factor matrix exists — notably the structural *union* of
    several factor patterns (:func:`repro.sparse.canonical.union_plan`),
    which the batched padded path analyzes and prices like a factor of its
    own.  A union of filled patterns need not be closed under elimination-
    tree fill itself; that is fine here because every consumer (pruning
    plan, cost replay, flop counts) reads the stored pattern structurally
    and the padded numerics densify per block.
    """
    indptr = np.asarray(indptr, dtype=np.intp)
    indices = np.asarray(indices, dtype=np.intp)
    require(indptr.shape == (n + 1,), "indptr must have n + 1 entries")
    cols = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
    below = np.flatnonzero(indices > cols)
    rows, cols = indices[below], cols[below]
    # The parent is the first below-diagonal entry of each column.
    first = np.ones(cols.size, dtype=bool)
    first[1:] = cols[1:] != cols[:-1]
    parent = np.full(n, -1, dtype=np.intp)
    parent[cols[first]] = rows[first]
    col_counts = np.asarray(np.diff(indptr), dtype=np.int64)
    by_row = np.lexsort((cols, rows))
    row_indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=row_indptr[1:])

    return SymbolicFactor(
        n=n,
        parent=parent,
        col_counts=col_counts,
        nnz_l=int(col_counts.sum()),
        flops=cholesky_flops(col_counts),
        row_indptr=row_indptr,
        row_indices=cols[by_row],
        supernodes=_fundamental_supernodes(parent, col_counts),
    )


def factor_pattern_csc(sym: SymbolicFactor) -> sp.csc_matrix:
    """Materialise the pattern of ``L`` as a CSC boolean matrix (incl. diagonal)."""
    if sym.row_indptr is None or sym.row_indices is None:
        raise ValueError("symbolic factor was computed without the full pattern")
    n = sym.n
    # Row i of the lower CSR is its below-diagonal pattern, then i itself.
    indices = np.insert(sym.row_indices, sym.row_indptr[1:], np.arange(n))
    indptr = sym.row_indptr + np.arange(n + 1)
    data = np.ones(indices.size, dtype=np.float64)
    return sp.csr_matrix((data, indices, indptr), shape=(n, n)).tocsc()


__all__ = [
    "SymbolicFactor",
    "symbolic_factorize",
    "symbolic_from_factor",
    "symbolic_from_pattern",
    "factor_pattern_csc",
    "pattern_digest",
]
