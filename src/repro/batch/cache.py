"""Keyed store for pattern-only assembly artifacts.

One cache entry holds everything the symbolic stage of an assembly
produces for a given fingerprint — the stepped permutation and
:class:`~repro.core.stepped.SteppedShape`, the TRSM pruning plan, the
:class:`~repro.sparse.symbolic.SymbolicFactor`, the per-stage cost
estimate and the device-memory estimate.  All of it is pure
pattern data, so any subdomain with the same fingerprint can reuse the
entry verbatim; the cache tracks hits, misses and LRU evictions so the
batch statistics can report the reuse achieved.

When the engine groups by *canonical-class* keys (items carrying a
:class:`~repro.sparse.canonical.CanonicalRelabeling`), one entry serves
every member of a whole orientation class — mirror- and rotation-identical
subdomains included — because the key hashes the *relabeled* patterns and
each member's relabeling is the invertible bridge between the shared
artifacts and its own DOF/multiplier order.  See ``docs/batching.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.assembler import MemoryEstimate, PreparedPattern
from repro.batch.fingerprint import Fingerprint
from repro.sparse.symbolic import SymbolicFactor
from repro.util import require


@dataclass(frozen=True)
class SymbolicArtifacts:
    """Everything pattern-only that one assembly needs, computed once per
    fingerprint group.

    ``analysis_seconds`` is the simulated host-side cost of producing these
    artifacts (see :func:`repro.batch.engine.symbolic_analysis_cost`) — on a
    cache hit that cost is *saved*, which is what the batch statistics
    aggregate.
    """

    fingerprint: Fingerprint
    prepared: PreparedPattern
    symbolic: SymbolicFactor
    estimate: dict[str, float]
    memory: MemoryEstimate
    analysis_seconds: float


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PatternCache`.

    The ``store_*`` counters are written by the persistent second tier
    (:class:`repro.store.tiered.TieredPatternCache`) and stay zero for a
    plain in-memory cache: ``store_hits`` lookups that missed the memory
    LRU but were served from the artifact store on disk (counted in
    ``hits`` too — the analysis was reused either way), ``store_misses``
    lookups that had to rebuild from scratch, and ``store_quarantined``
    corrupted store entries that were quarantined (recomputed, never
    served) during this cache's lookups.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_quarantined: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            store_hits=self.store_hits,
            store_misses=self.store_misses,
            store_quarantined=self.store_quarantined,
        )


class PatternCache:
    """LRU store of :class:`SymbolicArtifacts` keyed by fingerprint.

    Parameters
    ----------
    max_entries:
        ``None`` (default) keeps every entry; a positive bound evicts the
        least recently used entry beyond it; ``0`` disables caching
        entirely (every lookup misses and nothing is stored) — the
        benchmark's no-cache baseline.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        require(
            max_entries is None or max_entries >= 0,
            "max_entries must be None or >= 0",
        )
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._store: OrderedDict[str, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def get(self, key: str) -> Any | None:
        """Peek an entry without touching counters or LRU order."""
        return self._store.get(key)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(value, was_hit)``, building and storing on a miss."""
        if key in self._store:
            self.stats.hits += 1
            self._store.move_to_end(key)
            return self._store[key], True
        self.stats.misses += 1
        value = builder()
        if self.max_entries == 0:
            return value, False
        self._store[key] = value
        if self.max_entries is not None:
            while len(self._store) > self.max_entries:
                self._store.popitem(last=False)
                self.stats.evictions += 1
        return value, False

    def clear(self) -> None:
        """Drop all entries (counters are kept — they describe history)."""
        self._store.clear()


__all__ = ["SymbolicArtifacts", "CacheStats", "PatternCache"]
