"""Artifact envelope: versioned, checksummed serialization of pattern data.

One artifact file holds one assembly artifact — a
:class:`~repro.batch.cache.SymbolicArtifacts` bundle, a
:class:`~repro.sparse.canonical.CanonicalRelabeling`, a
:class:`~repro.sparse.canonical.UnionPlan`, a priced plan — wrapped in a
self-describing envelope::

    MAGIC (4B) | header length (4B BE) | header JSON | payload (pickle)

The header carries the schema version, the artifact *kind*, the full cache
key (file names are hashed, so the key must live inside), the payload byte
length and a SHA-256 checksum of the payload.  Decoding validates all of
it, in order, and raises a specific :class:`ArtifactError` subclass per
failure mode so the store can distinguish "not ours" from "torn write"
from "written by a future version" — every one of which it quarantines
rather than serves (see :mod:`repro.store.store`).

The payload is a pickle: artifacts are trusted intra-fleet data produced
by our own workers (the store directory has the same trust level as the
code checkout).  The checksum guards against *corruption*, not against
adversarial payloads — do not point the store at untrusted files.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass
from typing import Any

#: File magic of artifact envelopes ("RePro STOre").
MAGIC = b"RSTO"

#: Envelope schema version.  Bump on any layout change; readers quarantine
#: (never guess at) versions they do not know.
SCHEMA_VERSION = 2

#: Known artifact kinds (informational — the store accepts any string, the
#: constant names keep call sites consistent).
KIND_SYMBOLIC = "symbolic"
KIND_RELABELING = "relabeling"
KIND_UNION_PLAN = "union-plan"
KIND_PRICED_PLAN = "priced-plan"


class ArtifactError(Exception):
    """An envelope failed to decode.  Every subclass is a quarantine, not
    a crash: the store recomputes the artifact instead of serving it."""


class ArtifactCorrupt(ArtifactError):
    """Torn/bit-flipped content: bad magic, short payload, checksum
    mismatch or an unpicklable payload."""


class ArtifactSchemaMismatch(ArtifactError):
    """Written under a schema version this reader does not speak."""


@dataclass(frozen=True)
class ArtifactHeader:
    """Decoded envelope metadata (available even when the payload is not)."""

    schema: int
    kind: str
    key: str
    payload_bytes: int
    checksum: str


def checksum(payload: bytes) -> str:
    """Hex SHA-256 of an artifact payload."""
    return hashlib.sha256(payload).hexdigest()


def key_digest(key: str) -> str:
    """Filesystem-safe digest of a cache key (keys embed config/spec reprs
    with characters no filename wants); the full key lives in the header."""
    return hashlib.sha256(key.encode()).hexdigest()


def encode_artifact(obj: Any, kind: str, key: str) -> bytes:
    """Wrap *obj* in a checksummed envelope; the inverse of :func:`decode_artifact`."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "key": key,
        "payload_bytes": len(payload),
        "checksum": checksum(payload),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return MAGIC + struct.pack(">I", len(header_bytes)) + header_bytes + payload


def decode_header(data: bytes) -> tuple[ArtifactHeader, int]:
    """Parse and validate the envelope header of *data*.

    Returns ``(header, payload_offset)``; raises :class:`ArtifactCorrupt`
    on malformed framing and :class:`ArtifactSchemaMismatch` on an unknown
    schema version.
    """
    if len(data) < len(MAGIC) + 4:
        raise ArtifactCorrupt(f"truncated envelope: {len(data)} bytes")
    if data[: len(MAGIC)] != MAGIC:
        raise ArtifactCorrupt(f"bad magic {data[:len(MAGIC)]!r}")
    (header_len,) = struct.unpack(">I", data[len(MAGIC) : len(MAGIC) + 4])
    start = len(MAGIC) + 4
    if len(data) < start + header_len:
        raise ArtifactCorrupt("truncated envelope header")
    try:
        raw = json.loads(data[start : start + header_len].decode())
        header = ArtifactHeader(
            schema=int(raw["schema"]),
            kind=str(raw["kind"]),
            key=str(raw["key"]),
            payload_bytes=int(raw["payload_bytes"]),
            checksum=str(raw["checksum"]),
        )
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise ArtifactCorrupt(f"unreadable envelope header: {exc}") from exc
    if header.schema != SCHEMA_VERSION:
        raise ArtifactSchemaMismatch(
            f"artifact schema {header.schema} != reader schema {SCHEMA_VERSION}"
        )
    return header, start + header_len


def decode_artifact(
    data: bytes, expect_kind: str | None = None, expect_key: str | None = None
) -> tuple[Any, ArtifactHeader]:
    """Decode and fully validate an envelope back into ``(obj, header)``.

    Validation order: framing → schema version → payload length (a torn
    write truncates here) → checksum (a bit flip lands here) → unpickle →
    optional kind/key identity (a hash-bucket mixup lands here).  Any
    failure raises an :class:`ArtifactError` subclass.
    """
    header, offset = decode_header(data)
    payload = data[offset:]
    if len(payload) != header.payload_bytes:
        raise ArtifactCorrupt(
            f"torn payload: {len(payload)} bytes != declared {header.payload_bytes}"
        )
    if checksum(payload) != header.checksum:
        raise ArtifactCorrupt("payload checksum mismatch")
    if expect_kind is not None and header.kind != expect_kind:
        raise ArtifactCorrupt(
            f"artifact kind {header.kind!r} != expected {expect_kind!r}"
        )
    if expect_key is not None and header.key != expect_key:
        raise ArtifactCorrupt("artifact key does not match the requested key")
    try:
        obj = pickle.loads(payload)
    except Exception as exc:  # pickle raises a zoo of types on bad bytes
        raise ArtifactCorrupt(f"payload does not unpickle: {exc}") from exc
    return obj, header


__all__ = [
    "MAGIC",
    "SCHEMA_VERSION",
    "KIND_SYMBOLIC",
    "KIND_RELABELING",
    "KIND_UNION_PLAN",
    "KIND_PRICED_PLAN",
    "ArtifactError",
    "ArtifactCorrupt",
    "ArtifactSchemaMismatch",
    "ArtifactHeader",
    "checksum",
    "key_digest",
    "encode_artifact",
    "decode_header",
    "decode_artifact",
]
