"""Numeric sparse Cholesky factorization ``P A P^T = L L^T``.

:func:`cholesky` applies our fill-reducing permutation, then runs SciPy's
compiled SuperLU with the *natural* column ordering and diagonal pivoting
disabled; for an SPD matrix this yields ``A = L_u U`` with ``U = D L_u^T``,
from which the Cholesky factor ``L = L_u sqrt(D)`` is extracted (the
MKL/CHOLMOD stand-in of the reproduction).  The factor ``L`` is exposed in
CSC form — the property the paper needs from CHOLMOD ("only Cholmod allows
extraction of factors", §5).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import get_tracer
from repro.sparse.canonical import permute_symmetric
from repro.sparse.ordering import compute_ordering
from repro.sparse.triangular import TriangularSolver
from repro.util import check_permutation, check_sparse_square, cholesky_flops, require

class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix passed to :func:`cholesky` is not SPD."""


@dataclass
class CholeskyFactor:
    """Cholesky factorization ``A[perm][:, perm] = L @ L.T``.

    Attributes
    ----------
    l:
        Lower-triangular factor (CSC, diagonal first in every column).
    perm:
        Fill-reducing permutation applied to *a* before factorizing.
    flops:
        Numeric-factorization FLOP estimate (from the factor's column counts).
    engine:
        Which engine produced the factor (always ``"superlu"``; kept in
        the stored artifact format).
    """

    l: sp.csc_matrix
    perm: np.ndarray
    flops: float
    engine: str

    _solver: TriangularSolver | None = None

    @property
    def n(self) -> int:
        return self.l.shape[0]

    @property
    def nnz(self) -> int:
        return self.l.nnz

    def solver(self) -> TriangularSolver:
        """Cached compiled triangular solver for this factor."""
        if self._solver is None:
            self._solver = TriangularSolver(self.l)
        return self._solver

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (in the original, unpermuted ordering)."""
        b = np.asarray(b, dtype=np.float64)
        bp = b[self.perm]
        s = self.solver()
        y = s.solve(bp)
        xp = s.solve(y, transpose=True)
        x = np.empty_like(xp)
        x[self.perm] = xp
        return x

    def solve_permuted(self, b: np.ndarray) -> np.ndarray:
        """Solve ``(L L^T) x = b`` in the permuted ordering (no perm applied)."""
        s = self.solver()
        return s.solve(s.solve(np.asarray(b, dtype=np.float64)), transpose=True)

    def logdet(self) -> float:
        """``log det A`` from the factor diagonal."""
        return 2.0 * float(np.sum(np.log(self.l.diagonal())))


def cholesky(
    a: sp.spmatrix,
    ordering: str = "nd",
    perm: np.ndarray | None = None,
    coords: np.ndarray | None = None,
    conform: bool = False,
) -> CholeskyFactor:
    """Factorize the SPD matrix *a* as ``a[perm][:, perm] = L L^T``.

    Parameters
    ----------
    a:
        Sparse SPD matrix.
    ordering:
        Fill-reducing ordering method (see
        :func:`repro.sparse.ordering.compute_ordering`); ignored when *perm*
        is given.
    perm:
        Explicit permutation to use instead of computing one.
    coords:
        Node coordinates forwarded to geometric nested dissection.
    conform:
        Pad the stored factor to the full *symbolic* fill pattern (explicit
        zeros included).  SuperLU drops factor entries whose numerical value
        is exactly zero, so the stored pattern of ``L`` depends on values:
        translate-identical subdomains whose stiffness entries are ``0.0``
        versus ``~1e-17`` store *different* patterns and split the
        :mod:`repro.batch` pattern cache.  Conforming makes the stored
        pattern a pure function of ``pattern(A)`` and ``perm`` — the
        canonical factor structure CHOLMOD's supernodal storage provides
        for free.
    """
    n = check_sparse_square(a, "a")
    with get_tracer().span("sparse.cholesky", n=n, nnz=int(a.nnz)) as span:
        if perm is None:
            perm = compute_ordering(a, method=ordering, coords=coords)
        else:
            perm = check_permutation(perm, n, "perm")
        ap = permute_symmetric(a, perm, format="csc")

        l = _superlu_cholesky(ap)
        if conform:
            l = conform_to_symbolic(l, ap)

        counts = np.diff(l.indptr)
        span.set(nnz_l=int(l.nnz))
    return CholeskyFactor(l=l, perm=perm, flops=cholesky_flops(counts), engine="superlu")


#: Bounded memo of symbolic fill patterns keyed by the input pattern digest.
#: A structured decomposition factorizes many translate-identical K_reg
#: patterns with conform=True; without the memo each member would repeat the
#: (Python, O(nnz(L))) symbolic analysis that canonicalization exists to
#: amortize.  Entries are (indptr, indices) pairs of the pattern's CSC form.
_SYMBOLIC_PATTERN_CACHE: "OrderedDict[str, tuple[np.ndarray, np.ndarray]]" = OrderedDict()
_SYMBOLIC_PATTERN_CACHE_MAX = 64


def _symbolic_pattern(ap: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """CSC ``(indptr, indices)`` of the symbolic fill pattern of *ap*, memoized."""
    from repro.sparse.symbolic import (
        factor_pattern_csc,
        pattern_digest,
        symbolic_factorize,
    )

    key = pattern_digest(ap)
    hit = _SYMBOLIC_PATTERN_CACHE.get(key)
    if hit is not None:
        _SYMBOLIC_PATTERN_CACHE.move_to_end(key)
        return hit
    patt = factor_pattern_csc(symbolic_factorize(ap)).tocsc()
    patt.sort_indices()
    entry = (patt.indptr.copy(), patt.indices.copy())
    _SYMBOLIC_PATTERN_CACHE[key] = entry
    while len(_SYMBOLIC_PATTERN_CACHE) > _SYMBOLIC_PATTERN_CACHE_MAX:
        _SYMBOLIC_PATTERN_CACHE.popitem(last=False)
    return entry


def conform_to_symbolic(l: sp.csc_matrix, ap: sp.csc_matrix) -> sp.csc_matrix:
    """Scatter the stored factor *l* into the symbolic fill pattern of *ap*.

    Returns a CSC factor whose structure is exactly the symbolic Cholesky
    pattern of ``ap`` (value-independent); positions the numeric engine
    dropped as exact zeros are stored explicitly as ``0.0``.  The stored
    pattern must be a subset of the symbolic pattern — guaranteed for an
    SPD matrix factorized without pivoting.  The symbolic pattern is
    memoized by input-pattern digest, so a population of pattern-identical
    subdomains pays the symbolic analysis once.
    """
    n = l.shape[0]
    if n == 0:
        return l
    patt_indptr, patt_indices = _symbolic_pattern(ap)
    if patt_indices.size == l.nnz:
        return l  # no numerical drops: already the symbolic pattern
    data = np.zeros(patt_indices.size, dtype=np.float64)
    for j in range(n):
        l0, l1 = l.indptr[j], l.indptr[j + 1]
        stored = l.indices[l0:l1]
        if stored.size == 0:
            continue
        sym = patt_indices[patt_indptr[j] : patt_indptr[j + 1]]
        pos = np.searchsorted(sym, stored)
        require(
            bool(np.all(pos < sym.size)) and bool(np.array_equal(sym[pos], stored)),
            "stored factor pattern is not a subset of the symbolic pattern",
        )
        data[patt_indptr[j] + pos] = l.data[l0:l1]
    out = sp.csc_matrix(
        (data, patt_indices.copy(), patt_indptr.copy()), shape=(n, n)
    )
    out.sort_indices()
    return out


def _superlu_cholesky(ap: sp.csc_matrix) -> sp.csc_matrix:
    """Extract the Cholesky factor of SPD *ap* from a SuperLU factorization."""
    n = ap.shape[0]
    if n == 0:
        return sp.csc_matrix((0, 0))
    try:
        lu = spla.splu(
            ap,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"Equil": False, "SymmetricMode": True, "ColPerm": "NATURAL"},
        )
    except RuntimeError as exc:  # singular matrix
        raise NotPositiveDefiniteError(f"matrix is singular: {exc}") from exc
    if not np.array_equal(lu.perm_r, np.arange(n)):
        raise NotPositiveDefiniteError(
            "SuperLU performed row pivoting; matrix is not positive definite"
        )
    d = lu.U.diagonal()
    if np.any(d <= 0.0):
        raise NotPositiveDefiniteError("non-positive pivot encountered")
    l = lu.L  # CSC, unit diagonal: L D^(1/2) scales column j by sqrt(d_j)
    l.data *= np.repeat(np.sqrt(d), np.diff(l.indptr))
    l.sort_indices()
    return l


__all__ = [
    "cholesky",
    "CholeskyFactor",
    "NotPositiveDefiniteError",
    "conform_to_symbolic",
]
