"""Structural fingerprints of subdomains.

On structured decompositions many subdomains are translates of one another:
the pattern of the regularized ``K``, the pattern of the gluing ``B̃^T``
and the ordering choice — everything the symbolic stage consumes — are
identical, only the numerical values differ.  A fingerprint hashes exactly
that structural identity into a stable key, so the batch engine
(:mod:`repro.batch.engine`) can do the expensive pattern-only analysis once
per *group* instead of once per subdomain, the same way the paper's
three-stage solver performs symbolic analysis once and reuses it across
repeated numeric factorizations (§2.2).

Two granularities:

* :func:`factor_fingerprint` — from the *stored* pattern of the numeric
  factor ``L``, the permuted gluing pattern, and the gluing shape.  This is
  the exact key: equal fingerprints guarantee that every cached pattern
  artifact (stepped permutation, pruning plan, cost estimate) transfers
  bit-for-bit.
* :func:`geometric_fingerprint` — from the orientation- and translation-
  canonical lattice geometry labelled with the per-DOF gluing multiplicity
  (:func:`repro.sparse.canonical.canonical_signature`).  The coarsest key:
  mirror- and rotation-identical subdomains (the corner/edge classes of a
  structured grid) collapse together.  Safe for *pricing* — isomorphic
  patterns cost the same — and used by
  :func:`repro.feti.planner.plan_population`.

Exact sharing *across* mirror classes is the job of
:class:`repro.sparse.canonical.CanonicalRelabeling`: passed to
:func:`factor_fingerprint`, the gluing columns are put in canonical order
before hashing (the factor itself is built in the canonical frame), so the
emitted key is the *canonical-class* key — mirror-identical subdomains
collide on purpose, and the per-member relabeling is the invertible map
that makes their cached artifacts transfer exactly (``docs/batching.md``
walks through the mechanism).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.sparse.canonical import (
    DEFAULT_NEAR_SHAPE_TOLERANCE,
    DEFAULT_NEAR_SIZE_TOLERANCE,
    DEFAULT_TOLERANCE,
    canonical_signature,
    near_signature,
    rotation_signature,
)
from repro.sparse.cholesky import CholeskyFactor
from repro.sparse.symbolic import pattern_digest
from repro.util import require


@dataclass(frozen=True)
class Fingerprint:
    """Stable structural identity of one subdomain.

    ``key`` is a sha256 hex digest; ``n``/``m``/``nnz`` are carried along
    for display and sanity checks (collisions across different shapes are
    impossible anyway because the shapes are hashed).
    """

    key: str
    n: int
    m: int
    nnz: int

    def short(self) -> str:
        """Abbreviated key for logs and tables."""
        return self.key[:12]


def _update(h, arr: np.ndarray) -> None:
    h.update(np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes())
    h.update(b"|")


def _update_pattern(h, a: sp.spmatrix) -> int:
    ac = a.tocsc()
    ac.sort_indices()
    _update(h, np.asarray(ac.shape))
    _update(h, ac.indptr)
    _update(h, ac.indices)
    return int(ac.nnz)


def factor_fingerprint(
    factor: CholeskyFactor,
    bt: sp.spmatrix,
    extra: str = "",
    bt_rows: sp.spmatrix | None = None,
    relabeling=None,
) -> Fingerprint:
    """Fingerprint a factorized subdomain (the batch engine's cache key).

    Hashes the stored pattern of ``L`` and the pattern of *bt with the
    factor's permutation applied to its rows* — exactly the two patterns
    every cached artifact is computed from (the stepped permutation and
    pruning plan consume ``bt[perm]`` and ``pattern(L)``, nothing else).

    The permutation is deliberately **not** hashed raw: two members of the
    same canonical group can carry permutations that differ only by a
    relabeling of tied nested-dissection separators, and such permutations
    still produce the same ``pattern(L)`` and the same permuted gluing
    pattern — hashing the raw ``perm`` would split the cache for no reason.
    Equal fingerprints guarantee bit-for-bit artifact transfer because the
    key *is* the full input of the pattern-only analysis.

    *extra* lets callers mix configuration identity into the key (the
    engine passes ``config.describe()`` plus the device identity so one
    cache can serve several assembly configurations).  *bt_rows* accepts a
    precomputed ``bt.tocsr()[factor.perm]`` so hot loops that need the
    permuted gluing anyway (the batch engine) don't permute twice.

    With *relabeling* the key is the **canonical-class** key: the gluing
    columns are put in canonical order before hashing, so mirror-identical
    subdomains whose factors were built in the canonical frame
    (:func:`repro.feti.operator.factorize_subdomain` with the same
    relabeling) collide and share one artifact set — the per-member
    ``relabeling.col_perm`` is the invertible map back to each member's
    multiplier order.
    """
    require(sp.issparse(bt), "bt must be sparse")
    require(bt.shape[0] == factor.n, "bt row count must match factor order")
    if bt_rows is None:
        bt_rows = bt.tocsr()[factor.perm]
        if relabeling is not None:
            bt_rows = bt_rows.tocsc()[:, relabeling.col_perm]
    h = hashlib.sha256()
    nnz = _update_pattern(h, factor.l)
    _update_pattern(h, bt_rows)
    h.update(extra.encode())
    return Fingerprint(key=h.hexdigest(), n=factor.n, m=bt.shape[1], nnz=nnz)


def geometric_fingerprint(
    coords: np.ndarray,
    bt: sp.spmatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    extra: str = "",
) -> Fingerprint:
    """Orientation/translation-invariant pricing key of one subdomain.

    Hashes the canonical signature of the DOF coordinates labelled with
    each DOF's gluing multiplicity (how many columns of ``B̃^T`` touch it),
    plus the gluing shape and nonzero count.  Two subdomains share this key
    exactly when a rigid lattice symmetry (translation + axis permutation +
    flips) maps one glued point set onto the other — e.g. the four corner
    subdomains of a structured grid, or the twelve edge subdomains.

    Members of a geometric group have *isomorphic* (not bit-equal) patterns:
    use it to share per-group decisions that only depend on pattern shape
    and size — approach pricing, cost estimates — never to transfer exact
    pattern artifacts such as stepped permutations.
    """
    require(sp.issparse(bt), "bt must be sparse")
    coords = np.asarray(coords, dtype=np.float64)
    require(coords.shape[0] == bt.shape[0], "coords must have one row per DOF")
    multiplicity = np.asarray(bt.tocsr().getnnz(axis=1), dtype=np.int64)
    h = hashlib.sha256()
    h.update(canonical_signature(coords, multiplicity, tolerance).encode())
    h.update(b"|")
    _update(h, np.asarray([bt.shape[0], bt.shape[1], bt.nnz]))
    h.update(extra.encode())
    return Fingerprint(
        key=h.hexdigest(), n=bt.shape[0], m=bt.shape[1], nnz=int(bt.nnz)
    )


def rotation_fingerprint(
    coords: np.ndarray,
    bt: sp.spmatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    extra: str = "",
) -> Fingerprint:
    """Rotation-invariant pricing key (free rotations, not just axis flips).

    The :func:`geometric_fingerprint` analogue built on
    :func:`repro.sparse.canonical.rotation_signature`: coordinates are
    inertia-aligned before the orientation minimization, so congruent
    subdomains of a METIS-like decomposition share the key at *any*
    orientation.  Same contract as the geometric key — members have
    isomorphic-up-to-quantization patterns, safe for pricing, never for
    exact artifact transfer.
    """
    require(sp.issparse(bt), "bt must be sparse")
    coords = np.asarray(coords, dtype=np.float64)
    require(coords.shape[0] == bt.shape[0], "coords must have one row per DOF")
    multiplicity = np.asarray(bt.tocsr().getnnz(axis=1), dtype=np.int64)
    h = hashlib.sha256()
    h.update(rotation_signature(coords, multiplicity, tolerance).encode())
    h.update(b"|")
    _update(h, np.asarray([bt.shape[0], bt.shape[1], bt.nnz]))
    h.update(extra.encode())
    return Fingerprint(
        key=h.hexdigest(), n=bt.shape[0], m=bt.shape[1], nnz=int(bt.nnz)
    )


def near_fingerprint(
    coords: np.ndarray,
    bt: sp.spmatrix,
    size_tolerance: float = DEFAULT_NEAR_SIZE_TOLERANCE,
    shape_tolerance: float = DEFAULT_NEAR_SHAPE_TOLERANCE,
    extra: str = "",
) -> Fingerprint:
    """Near-match pricing key: approximately-congruent subdomains collide.

    Built on :func:`repro.sparse.canonical.near_signature` — coarsely
    quantized rigid-motion invariants of the glued point set — plus the
    gluing size in the same logarithmic buckets (multiplier count and
    nonzeros within ~*size_tolerance* share a bucket; hashing the raw
    shape would re-split everything a balanced partitioner produces).

    This is the unstructured-decomposition pricing key: exact and even
    rotation-exact classes are almost all singletons there, but a balanced
    METIS-like partition yields many subdomains of similar size and shape
    whose preprocessing costs are near-identical — one plan and one cost
    estimate per near class is the right spend.  Never use it to transfer
    exact pattern artifacts; sharing those stays gated on the bitwise
    :func:`factor_fingerprint`.
    """
    require(sp.issparse(bt), "bt must be sparse")
    coords = np.asarray(coords, dtype=np.float64)
    require(coords.shape[0] == bt.shape[0], "coords must have one row per DOF")
    multiplicity = np.asarray(bt.tocsr().getnnz(axis=1), dtype=np.int64)
    from repro.sparse.canonical import log_bucket

    h = hashlib.sha256()
    h.update(
        near_signature(
            coords,
            multiplicity,
            size_tolerance=size_tolerance,
            shape_tolerance=shape_tolerance,
        ).encode()
    )
    h.update(b"|")
    _update(
        h,
        np.asarray(
            [
                log_bucket(float(bt.shape[1]), size_tolerance),
                log_bucket(float(bt.nnz), size_tolerance),
            ]
        ),
    )
    h.update(extra.encode())
    return Fingerprint(
        key=h.hexdigest(), n=bt.shape[0], m=bt.shape[1], nnz=int(bt.nnz)
    )


def union_fingerprint(l_union, bt_union, extra: str = "") -> Fingerprint:
    """Cache key of one union-pattern artifact set (the padded tier).

    Hashes the two union patterns (:class:`repro.sparse.canonical.PatternUnion`
    of the members' factor and permuted-gluing patterns) — the full input of
    the union's pattern-only analysis, exactly like :func:`factor_fingerprint`
    hashes the exact analysis input.  Two near classes whose unions coincide
    structurally (common on meshes with repeated local topology) share one
    stepped permutation, pruning plan and cost estimate.  *extra* mixes in
    the configuration/device identity, as everywhere.
    """
    h = hashlib.sha256()
    for patt in (l_union, bt_union):
        _update(h, np.asarray(patt.shape))
        _update(h, patt.indptr)
        _update(h, patt.indices)
    h.update(b"union|")
    h.update(extra.encode())
    return Fingerprint(
        key=h.hexdigest(),
        n=int(l_union.shape[0]),
        m=int(bt_union.shape[1]),
        nnz=int(l_union.nnz),
    )


#: Geometric pricing-signature modes accepted by
#: :class:`repro.batch.engine.BatchAssembler` and
#: :func:`repro.feti.planner.plan_population`: ``"frame"`` (translation +
#: axis perms/flips), ``"rotation"`` (adds free rotations), ``"near"``
#: (approximate congruence; coarse invariants).
SIGNATURE_MODES = ("frame", "rotation", "near")


def geometric_fingerprint_for(
    mode: str,
    coords: np.ndarray,
    bt: sp.spmatrix,
    tolerance: float = DEFAULT_TOLERANCE,
    size_tolerance: float = DEFAULT_NEAR_SIZE_TOLERANCE,
    shape_tolerance: float = DEFAULT_NEAR_SHAPE_TOLERANCE,
    extra: str = "",
) -> Fingerprint:
    """Dispatch one of the three geometric pricing keys by *mode*.

    *tolerance* (the coordinate quantum) parameterizes the two lattice
    modes; the ``"near"`` mode is lattice-free and takes the bucket widths
    *size_tolerance* / *shape_tolerance* instead.
    """
    require(mode in SIGNATURE_MODES, f"unknown signature mode {mode!r}")
    if mode == "frame":
        return geometric_fingerprint(coords, bt, tolerance=tolerance, extra=extra)
    if mode == "rotation":
        return rotation_fingerprint(coords, bt, tolerance=tolerance, extra=extra)
    return near_fingerprint(
        coords,
        bt,
        size_tolerance=size_tolerance,
        shape_tolerance=shape_tolerance,
        extra=extra,
    )


__all__ = [
    "Fingerprint",
    "SIGNATURE_MODES",
    "pattern_digest",
    "factor_fingerprint",
    "geometric_fingerprint",
    "geometric_fingerprint_for",
    "near_fingerprint",
    "rotation_fingerprint",
    "union_fingerprint",
]
