"""Crash-safe, file-backed artifact store keyed by canonical fingerprints.

The persistent tier behind the :class:`~repro.batch.cache.PatternCache`
(see :class:`repro.store.tiered.TieredPatternCache`): symbolic factors,
relabelings, union plans and priced plans survive the process, so a fleet
of stateless workers — and every later run on the same machine — assembles
against one warm shared cache.

Layout (everything under one *root* directory)::

    root/
      objects/<xy>/<keydigest>.<kind>.art   committed artifacts
      quarantine/<name>.<reason>            corrupted entries, kept for autopsy

Durability contract:

* **Atomic commits** — every put writes a checksummed envelope
  (:mod:`repro.store.artifact`) to a unique tmp file in the target
  directory, fsyncs, then ``os.replace``\\ s it into place.  A crash
  before the rename leaves only a stale tmp file (swept by
  :meth:`ArtifactStore.gc`); readers can never observe a half-written
  committed entry *path*.
* **Graceful degradation** — a committed entry that still fails to decode
  (torn write that somehow committed, bit rot, schema drift) is
  **quarantined and recomputed**: moved into ``quarantine/``, counted, and
  reported as a miss.  Corruption is never served and never a crash.
* **Idempotent puts** — two workers racing to store the same fingerprint
  both win: last rename silently replaces an identical envelope.
* **Bounded retries** — transient ``OSError`` reads retry a few times
  before degrading to a miss.

Observability: ``store.get`` / ``store.put`` / ``store.quarantine`` spans
and ``store.*`` counters whenever a :mod:`repro.obs` tracer is installed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.obs import get_tracer
from repro.store.artifact import (
    ArtifactError,
    ArtifactHeader,
    ArtifactSchemaMismatch,
    decode_artifact,
    decode_header,
    encode_artifact,
    key_digest,
)
from repro.store.faults import (
    NO_FAULTS,
    FaultInjector,
    InjectedCrash,
    TransientIOError,
)
from repro.util import require

#: File extension of committed artifacts.
ARTIFACT_SUFFIX = ".art"


@dataclass
class StoreStats:
    """Operation counters of one :class:`ArtifactStore` handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    quarantined: int = 0
    transient_retries: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"store: {self.hits} hit(s) / {self.misses} miss(es) "
            f"({self.hit_rate * 100.0:.1f}% hit rate), {self.puts} put(s), "
            f"{self.quarantined} quarantined, "
            f"{self.transient_retries} transient retrie(s)"
        )


@dataclass(frozen=True)
class StoreEntry:
    """One committed artifact as seen by :meth:`ArtifactStore.entries`."""

    path: str
    kind: str
    key: str
    payload_bytes: int


class ArtifactStore:
    """File-backed artifact store with quarantine-on-corruption semantics.

    Parameters
    ----------
    root:
        Store directory (created on first use).
    faults:
        Optional :class:`~repro.store.faults.FaultInjector`; the store
        fires ``store.put.crash`` / ``store.put.torn`` /
        ``store.get.transient`` at the matching sites.
    max_read_retries:
        Attempts per read before a transient I/O error degrades to a miss.
    """

    def __init__(
        self,
        root,
        faults: FaultInjector | None = None,
        max_read_retries: int = 3,
    ) -> None:
        require(max_read_retries >= 1, "max_read_retries must be >= 1")
        self.root = Path(root)
        self.faults = faults if faults is not None else NO_FAULTS
        self.max_read_retries = max_read_retries
        self.stats = StoreStats()
        self._tmp_seq = 0

    # -- paths -------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, key: str, kind: str) -> Path:
        """Committed location of ``(key, kind)`` (may not exist yet)."""
        digest = key_digest(key)
        return self.objects_dir / digest[:2] / f"{digest}.{kind}{ARTIFACT_SUFFIX}"

    # -- core operations ---------------------------------------------------

    def contains(self, key: str, kind: str) -> bool:
        return self.path_for(key, kind).exists()

    def put(self, key: str, kind: str, obj: Any, overwrite: bool = True) -> bool:
        """Commit *obj* under ``(key, kind)`` atomically.

        Returns ``True`` when a new envelope was committed, ``False`` when
        an entry already existed and *overwrite* was off.  Raises only on
        real (or injected-crash) failures — an interrupted put leaves the
        previous state intact.
        """
        path = self.path_for(key, kind)
        if not overwrite and path.exists():
            return False
        data = encode_artifact(obj, kind, key)
        with get_tracer().span("store.put", kind=kind, bytes=len(data)):
            if self.faults.tears("store.put.torn"):
                # Simulated torn write: a truncated envelope *commits*.
                # The length/checksum validation catches it on read.
                data = data[: max(8, len(data) - max(1, len(data) // 3))]
            path.parent.mkdir(parents=True, exist_ok=True)
            self._tmp_seq += 1
            tmp = path.parent / f".{path.name}.tmp-{os.getpid()}-{self._tmp_seq}"
            try:
                with open(tmp, "wb") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                # Crash-before-commit point: tmp is on disk, rename is not.
                self.faults.fire("store.put.crash")
                os.replace(tmp, path)
            except InjectedCrash:
                # A "dead" process leaves its tmp file behind — gc() sweeps
                # it later.  Committed state is untouched either way.
                raise
            except BaseException:
                try:
                    tmp.unlink(missing_ok=True)
                except OSError:
                    pass
                raise
        self.stats.puts += 1
        self._count("store.puts")
        return True

    def get(self, key: str, kind: str) -> Any | None:
        """Fetch ``(key, kind)``; ``None`` on miss *or* quarantined entry.

        Decode failures quarantine the file and degrade to a miss —
        corruption is recomputed upstream, never served and never raised.
        """
        path = self.path_for(key, kind)
        with get_tracer().span("store.get", kind=kind) as span:
            data = self._read_with_retry(path)
            if data is None:
                self.stats.misses += 1
                self._count("store.misses")
                span.set(hit=False)
                return None
            try:
                obj, _ = decode_artifact(data, expect_kind=kind, expect_key=key)
            except ArtifactError as exc:
                self._quarantine(path, exc)
                self.stats.misses += 1
                self._count("store.misses")
                span.set(hit=False, quarantined=True)
                return None
            self.stats.hits += 1
            self._count("store.hits")
            span.set(hit=True)
            return obj

    def _read_with_retry(self, path: Path) -> bytes | None:
        """Read *path*, retrying transient I/O errors; ``None`` on miss or
        when the retries are exhausted (degrade, don't crash)."""
        for attempt in range(self.max_read_retries):
            try:
                self.faults.fire("store.get.transient")
                return path.read_bytes()
            except FileNotFoundError:
                return None
            except TransientIOError:
                self.stats.transient_retries += 1
                self._count("store.transient_retries")
            except OSError:
                self.stats.transient_retries += 1
                self._count("store.transient_retries")
        return None

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a corrupted entry out of the serving tree (never raises)."""
        label = type(reason).__name__
        with get_tracer().span("store.quarantine", reason=label):
            try:
                self.quarantine_dir.mkdir(parents=True, exist_ok=True)
                dest = self.quarantine_dir / f"{path.name}.{label}"
                seq = 0
                while dest.exists():
                    seq += 1
                    dest = self.quarantine_dir / f"{path.name}.{label}.{seq}"
                os.replace(path, dest)
            except OSError:
                # Last resort: at least stop serving it.
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
        self.stats.quarantined += 1
        self._count("store.quarantined")

    # -- maintenance -------------------------------------------------------

    def entries(self) -> Iterator[StoreEntry]:
        """Iterate committed artifacts (header-only read; corrupt headers
        are skipped here — :meth:`verify` is the repair pass)."""
        for path in sorted(self.objects_dir.glob(f"*/*{ARTIFACT_SUFFIX}")):
            try:
                header, _ = decode_header(path.read_bytes())
            except (ArtifactError, OSError):
                continue
            yield StoreEntry(
                path=str(path),
                kind=header.kind,
                key=header.key,
                payload_bytes=header.payload_bytes,
            )

    def verify(self) -> tuple[int, int]:
        """Full-content check of every committed entry.

        Decodes payloads (length + checksum + unpickle); corrupted or
        version-mismatched entries are quarantined.  Returns
        ``(n_ok, n_quarantined)``.
        """
        n_ok = 0
        n_bad = 0
        for path in sorted(self.objects_dir.glob(f"*/*{ARTIFACT_SUFFIX}")):
            try:
                decode_artifact(path.read_bytes())
                n_ok += 1
            except (ArtifactError, OSError) as exc:
                self._quarantine(path, exc if isinstance(exc, ArtifactError)
                                 else ArtifactSchemaMismatch(str(exc)))
                n_bad += 1
        return n_ok, n_bad

    def gc(self) -> int:
        """Sweep stale tmp files left by crashed writers; returns the count.

        Only run this when no writer is mid-put in the swept directories
        (the CLI ``store verify`` path, between fleet runs).
        """
        removed = 0
        with get_tracer().span("store.gc") as span:
            if not self.objects_dir.is_dir():
                return 0
            for bucket in self.objects_dir.iterdir():
                if not bucket.is_dir():
                    continue
                for entry in bucket.iterdir():
                    if entry.name.startswith(".") and ".tmp-" in entry.name:
                        try:
                            entry.unlink()
                            removed += 1
                        except OSError:
                            pass
            span.set(swept=removed)
        if removed:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.metrics.count("store.gc_swept", removed)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.objects_dir.glob(f"*/*{ARTIFACT_SUFFIX}"))

    @staticmethod
    def _count(name: str) -> None:
        get_tracer().count(name)


__all__ = ["ArtifactStore", "StoreStats", "StoreEntry", "ARTIFACT_SUFFIX"]
