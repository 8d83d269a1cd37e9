"""Elimination tree of a symmetric sparse matrix (Liu's algorithm).

The elimination tree (etree) is the core data structure of sparse Cholesky:
``parent[j]`` is the row index of the first sub-diagonal nonzero of column
*j* of the factor ``L``.  Row sub-trees of the etree give the nonzero pattern
of each row of ``L``, which the symbolic factorization uses.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.util import check_sparse_square


def elimination_tree(a: sp.spmatrix) -> np.ndarray:
    """Compute the elimination tree of the symmetric matrix *a*.

    Only the lower triangle of *a* is referenced.  Returns ``parent`` with
    ``parent[j] == -1`` for roots.  Uses Liu's algorithm with path
    compression (ancestor array), O(nnz * alpha(n)).
    """
    n = check_sparse_square(a, "a")
    a_lower = sp.tril(a, format="csr")
    indptr, indices = a_lower.indptr, a_lower.indices
    parent = np.full(n, -1, dtype=np.intp)
    ancestor = np.full(n, -1, dtype=np.intp)
    for j in range(n):
        # Row j of the lower triangle holds the entries a[j, i] with i <= j,
        # i.e. the column-j entries of the upper triangle.  March each i < j
        # up to the root, compressing paths into `ancestor`.
        for t in range(indptr[j], indptr[j + 1]):
            i = indices[t]
            while i != -1 and i < j:
                i_next = ancestor[i]
                ancestor[i] = j
                if i_next == -1:
                    parent[i] = j
                i = i_next
    return parent


def postorder(parent: np.ndarray) -> np.ndarray:
    """Return a postordering of the forest given by *parent*.

    Children are visited before their parent; the result is a permutation of
    ``range(n)``.
    """
    parent = np.asarray(parent, dtype=np.intp)
    n = parent.size
    # Build child lists (first-child / next-sibling to stay O(n)).
    first_child = np.full(n, -1, dtype=np.intp)
    next_sibling = np.full(n, -1, dtype=np.intp)
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p != -1:
            next_sibling[v] = first_child[p]
            first_child[p] = v
    order = np.empty(n, dtype=np.intp)
    k = 0
    stack: list[int] = []
    for root in range(n):
        if parent[root] != -1:
            continue
        stack.append(root)
        while stack:
            v = stack[-1]
            c = first_child[v]
            if c != -1:
                stack.append(c)
                first_child[v] = next_sibling[c]  # consume the child edge
            else:
                order[k] = stack.pop()
                k += 1
    if k != n:
        raise ValueError("parent array does not describe a forest")
    return order


def row_pattern(
    a_csr_lower: sp.csr_matrix, parent: np.ndarray, i: int
) -> np.ndarray:
    """Nonzero column pattern of row *i* of the Cholesky factor ``L``.

    *a_csr_lower* is the CSR lower triangle of A.  The pattern of row *i* is
    the union of the etree paths from each nonzero ``a[i, j]`` (j < i) up
    towards *i* — the classic row-subtree characterisation.  Returns sorted
    column indices (excluding the diagonal).
    """
    marked = set()
    indptr, indices = a_csr_lower.indptr, a_csr_lower.indices
    for t in range(indptr[i], indptr[i + 1]):
        j = indices[t]
        if j >= i:
            continue
        while j != -1 and j < i and j not in marked:
            marked.add(j)
            j = parent[j]
    return np.fromiter(sorted(marked), dtype=np.intp, count=len(marked))


__all__ = ["elimination_tree", "postorder", "row_pattern"]
