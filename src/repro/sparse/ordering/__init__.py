"""Fill-reducing orderings: natural, RCM, AMD, nested dissection."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.obs import get_tracer
from repro.sparse.canonical import DEFAULT_TOLERANCE, canonical_coords
from repro.sparse.ordering.amd import amd_ordering
from repro.sparse.ordering.natural import natural_ordering
from repro.sparse.ordering.nested_dissection import nd_ordering
from repro.sparse.ordering.rcm import rcm_ordering
from repro.sparse.reuse import SymbolicReuse
from repro.util import require

ORDERING_METHODS = ("natural", "rcm", "amd", "nd")


def compute_ordering(
    a: sp.spmatrix,
    method: str = "nd",
    coords: np.ndarray | None = None,
    reuse: SymbolicReuse | None = None,
    **kwargs,
) -> np.ndarray:
    """Compute a fill-reducing permutation of the symmetric matrix *a*.

    Parameters
    ----------
    a:
        Square symmetric sparse matrix (pattern is what matters).
    method:
        One of ``"natural"``, ``"rcm"``, ``"amd"``, ``"nd"`` (default —
        nested dissection, the METIS stand-in the paper's stepped shape
        relies on).
    coords:
        Optional node coordinates, used by geometric nested dissection.
    reuse:
        Optional :class:`~repro.sparse.reuse.SymbolicReuse` scope.  Every
        method reads *a* only through the CSR structure of its pattern, and
        nested dissection bisects on the canonical-frame float64 *coords*
        (computed here, once, unless ``canonicalize=False``); those bytes
        (with the method and its parameters) key a lookup, and a hit
        returns the permutation computed for them before — the same
        read-only array.  Translate-identical subdomains therefore hit
        without a relabeling.

    Returns
    -------
    numpy.ndarray
        Permutation ``perm`` such that ``a[perm][:, perm]`` is the reordered
        matrix.
    """
    require(method in ORDERING_METHODS, f"unknown ordering method {method!r}")
    tracer = get_tracer()
    if method == "nd" and coords is not None:
        # Canonicalize here, once, so the reuse key below is the bytes
        # nd_ordering bisects on.
        if kwargs.pop("canonicalize", True):
            coords = canonical_coords(
                coords, kwargs.pop("tolerance", DEFAULT_TOLERANCE)
            )
        kwargs["canonicalize"] = False
    key = None
    if reuse is not None:
        acsr = a.tocsr()
        key = (
            method,
            tuple(sorted(kwargs.items())),
            acsr.shape,
            acsr.indptr.tobytes(),
            acsr.indices.tobytes(),
            None
            if coords is None or method != "nd"
            else (np.shape(coords), np.asarray(coords, dtype=np.float64).tobytes()),
        )
        hit = reuse.orderings.get(key)
        if hit is not None:
            tracer.count("sparse.ordering.reused")
            return hit
    if method == "natural":
        perm = natural_ordering(a)
    elif method == "rcm":
        perm = rcm_ordering(a)
    elif method == "amd":
        perm = amd_ordering(a)
    else:
        perm = nd_ordering(a, coords=coords, **kwargs)
    tracer.count("sparse.ordering.computed")
    if reuse is not None:
        perm.flags.writeable = False
        reuse.orderings[key] = perm
    return perm


__all__ = [
    "compute_ordering",
    "natural_ordering",
    "rcm_ordering",
    "amd_ordering",
    "nd_ordering",
    "ORDERING_METHODS",
]
