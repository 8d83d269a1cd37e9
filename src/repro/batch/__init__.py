"""Batched assembly engine with a symbolic pattern cache.

Population-scale Schur-complement assembly: fingerprint subdomains by
structural identity (:mod:`repro.batch.fingerprint`), cache the expensive
pattern-only artifacts per fingerprint (:mod:`repro.batch.cache`), assemble
whole batches with one symbolic analysis per group
(:mod:`repro.batch.engine`), and report throughput / hit-rate / time-saved
statistics (:mod:`repro.batch.stats`).  Priced batch work plugs straight
into the multi-stream scheduler of :mod:`repro.runtime`.

Grouping happens at the *canonical-class* level by default: items built by
:func:`repro.batch.engine.items_from_decomposition` carry a
:class:`repro.sparse.canonical.CanonicalRelabeling`, so mirror- and
rotation-identical subdomains share one cache entry and one stacked
numeric group, and their Schur complements are mapped back to each
member's own multiplier order on the way out.  ``docs/batching.md``
documents the whole stack; ``docs/architecture.md`` places it in the
system.
"""

from repro.batch.cache import CacheStats, PatternCache, SymbolicArtifacts
from repro.batch.engine import (
    DEFAULT_UNION_FILL_CAP,
    EXECUTION_MODES,
    GROUPED_AUTO_MAX_SPARSE_ORDER,
    GROUPED_AUTO_THRESHOLD,
    UNION_FILL_BUCKETS,
    BatchAssembler,
    BatchItem,
    BatchResult,
    build_artifacts,
    items_from_decomposition,
    symbolic_analysis_cost,
)
from repro.batch.fingerprint import (
    SIGNATURE_MODES,
    Fingerprint,
    factor_fingerprint,
    geometric_fingerprint,
    geometric_fingerprint_for,
    near_fingerprint,
    pattern_digest,
    rotation_fingerprint,
    union_fingerprint,
)
from repro.batch.stats import BatchStats, SolveStats

__all__ = [
    "BatchAssembler",
    "BatchItem",
    "BatchResult",
    "BatchStats",
    "SolveStats",
    "EXECUTION_MODES",
    "GROUPED_AUTO_THRESHOLD",
    "GROUPED_AUTO_MAX_SPARSE_ORDER",
    "DEFAULT_UNION_FILL_CAP",
    "UNION_FILL_BUCKETS",
    "PatternCache",
    "CacheStats",
    "SymbolicArtifacts",
    "Fingerprint",
    "SIGNATURE_MODES",
    "pattern_digest",
    "factor_fingerprint",
    "geometric_fingerprint",
    "geometric_fingerprint_for",
    "near_fingerprint",
    "rotation_fingerprint",
    "union_fingerprint",
    "build_artifacts",
    "items_from_decomposition",
    "symbolic_analysis_cost",
]
