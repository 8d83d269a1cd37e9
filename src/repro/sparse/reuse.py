"""Reuse scope for pattern-only (symbolic) results across congruent subdomains.

Canonical relabelings and fill-reducing orderings are pure functions of
sparsity patterns and lattice coordinates, and those inputs are bit-equal
for every member of a congruence class.  A :class:`SymbolicReuse` lets one
pass over a decomposition pay for them once per class instead of once per
member: :func:`repro.sparse.canonical.canonical_relabeling` and
:func:`repro.sparse.ordering.compute_ordering` take it as an optional
``reuse=`` argument, look their inputs up in it and store what they had to
compute.

Keys are the exact bytes the reused function reads (never a class
signature), so a hit is what recomputation would have returned.  The scope
is an ordinary object owned by the caller —
:func:`repro.batch.engine.items_from_decomposition` creates one per call
and drops it on return; nothing here is process-global, and passing no
scope simply means every lookup misses.
"""

from __future__ import annotations


class SymbolicReuse:
    """Results of one pass's symbolic work, keyed by the bytes they depend on.

    Stored values are shared between every subdomain that hits them and are
    therefore read-only arrays (or frozen objects holding read-only arrays).
    """

    __slots__ = ("relabelings", "orderings")

    def __init__(self) -> None:
        #: ``canonical_relabeling`` inputs -> ``CanonicalRelabeling``.
        self.relabelings: dict = {}
        #: ``compute_ordering`` inputs -> permutation.
        self.orderings: dict = {}


__all__ = ["SymbolicReuse"]
