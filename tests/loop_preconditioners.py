"""Reference oracle: the lumped and Dirichlet preconditioners as
per-subdomain sparse loops.

The library applies both as stacked dense local blocks through the
explicit ``F``'s gather → GEMM → scatter chain
(:class:`repro.feti.preconditioner.StackedPreconditioner`); these loops
apply the same sums ``sum_i B_i K_i B_i^T`` and
``sum_i B_i diag(0, S_i) B_i^T`` one subdomain at a time with sparse
products, in a different summation order.  They are kept beside the tests
only, to check the stacked blocks against them.
"""

from __future__ import annotations

import numpy as np

from repro.feti.preconditioner import interior_schur


class LoopLumped:
    """``M^{-1} w = sum_i B_i K_i B_i^T w_i``, one sparse chain per subdomain."""

    def __init__(self, decomposition) -> None:
        self.decomposition = decomposition

    def apply(self, w: np.ndarray) -> np.ndarray:
        dec = self.decomposition
        contribs = [
            sub.bt.T @ (sub.k @ (sub.bt @ w_local))
            for sub, w_local in zip(dec.subdomains, dec.scatter_dual(w))
        ]
        return dec.gather_dual(contribs)


class LoopDirichlet:
    """``M^{-1} w = sum_i B_i diag(0, S_i) B_i^T w_i`` with the library's own
    interior Schur complements ``S_i``."""

    def __init__(self, decomposition) -> None:
        self.decomposition = decomposition
        self.schur = [interior_schur(sub) for sub in decomposition.subdomains]

    def apply(self, w: np.ndarray) -> np.ndarray:
        dec = self.decomposition
        contribs = []
        for sub, (s, boundary), w_local in zip(
            dec.subdomains, self.schur, dec.scatter_dual(w)
        ):
            v = sub.bt @ w_local
            t = np.zeros_like(v)
            if boundary.size:
                t[boundary] = s @ v[boundary]
            contribs.append(sub.bt.T @ t)
        return dec.gather_dual(contribs)
