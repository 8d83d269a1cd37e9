"""Tests for the persistent artifact store (``repro.store``).

Covers the envelope format, atomic commits, quarantine-and-recompute on
every corruption mode (torn writes, checksum flips, schema drift), fault
injection at the put/get sites, and the two-tier pattern cache.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.batch import BatchAssembler, PatternCache, items_from_decomposition
from repro.dd import decompose
from repro.fem import heat_transfer_2d
from repro.store import (
    KIND_PRICED_PLAN,
    KIND_RELABELING,
    KIND_SYMBOLIC,
    KIND_UNION_PLAN,
    SCHEMA_VERSION,
    ArtifactCorrupt,
    ArtifactSchemaMismatch,
    ArtifactStore,
    FaultInjector,
    InjectedCrash,
    TieredPatternCache,
    decode_artifact,
    encode_artifact,
    key_digest,
)


def _store(tmp_path, **kwargs) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store", **kwargs)


# ---------------------------------------------------------------------------
# envelope


@pytest.mark.parametrize(
    "kind", [KIND_SYMBOLIC, KIND_RELABELING, KIND_UNION_PLAN, KIND_PRICED_PLAN]
)
def test_envelope_roundtrip_all_kinds(kind):
    obj = {"kind": kind, "payload": list(range(10))}
    data = encode_artifact(obj, kind, "some/key|with weird chars")
    out, header = decode_artifact(data, kind, "some/key|with weird chars")
    assert out == obj
    assert header.schema == SCHEMA_VERSION
    assert header.kind == kind


def test_envelope_rejects_wrong_kind_and_key():
    data = encode_artifact([1, 2], KIND_SYMBOLIC, "k1")
    with pytest.raises(ArtifactCorrupt):
        decode_artifact(data, KIND_RELABELING, "k1")
    with pytest.raises(ArtifactCorrupt):
        decode_artifact(data, KIND_SYMBOLIC, "other-key")


def test_envelope_detects_truncation_and_flips():
    data = encode_artifact({"x": 1}, KIND_SYMBOLIC, "k")
    with pytest.raises(ArtifactCorrupt):
        decode_artifact(data[: len(data) - 3], KIND_SYMBOLIC, "k")
    flipped = bytearray(data)
    flipped[-1] ^= 0xFF
    with pytest.raises(ArtifactCorrupt):
        decode_artifact(bytes(flipped), KIND_SYMBOLIC, "k")


def test_envelope_rejects_bad_magic_and_schema():
    data = encode_artifact({"x": 1}, KIND_SYMBOLIC, "k")
    with pytest.raises(ArtifactCorrupt):
        decode_artifact(b"XXXX" + data[4:], KIND_SYMBOLIC, "k")
    with pytest.raises(ArtifactSchemaMismatch):
        decode_artifact(_with_schema(data, SCHEMA_VERSION + 1), KIND_SYMBOLIC, "k")


def _with_schema(data: bytes, version: int) -> bytes:
    """*data* with its header rewritten to another schema version (payload
    and checksum intact) — an entry a different release wrote."""
    import struct

    hlen = struct.unpack(">I", data[4:8])[0]
    header = json.loads(data[8 : 8 + hlen])
    header["schema"] = version
    raw = json.dumps(header, sort_keys=True).encode()
    return data[:4] + struct.pack(">I", len(raw)) + raw + data[8 + hlen :]


def test_key_digest_is_filename_safe():
    digest = key_digest("key with / and | and spaces")
    assert len(digest) == 64
    assert digest == key_digest("key with / and | and spaces")
    assert digest != key_digest("another key")


# ---------------------------------------------------------------------------
# store


def test_store_put_get_roundtrip(tmp_path):
    store = _store(tmp_path)
    obj = {"rows": [1, 2, 3], "name": "sym"}
    assert store.put("k1", KIND_SYMBOLIC, obj)
    assert store.contains("k1", KIND_SYMBOLIC)
    assert store.get("k1", KIND_SYMBOLIC) == obj
    assert store.stats.hits == 1 and store.stats.puts == 1
    assert len(store) == 1


def test_store_get_missing_is_miss_not_error(tmp_path):
    store = _store(tmp_path)
    assert store.get("nope", KIND_SYMBOLIC) is None
    assert store.stats.misses == 1


def test_store_put_no_overwrite(tmp_path):
    store = _store(tmp_path)
    assert store.put("k", KIND_SYMBOLIC, 1)
    assert not store.put("k", KIND_SYMBOLIC, 2, overwrite=False)
    assert store.get("k", KIND_SYMBOLIC) == 1
    assert store.put("k", KIND_SYMBOLIC, 2)
    assert store.get("k", KIND_SYMBOLIC) == 2


def test_store_crash_before_commit_leaves_no_entry(tmp_path):
    faults = FaultInjector("store.put.crash:1")
    store = _store(tmp_path, faults=faults)
    with pytest.raises(InjectedCrash):
        store.put("k", KIND_SYMBOLIC, {"x": 1})
    # Nothing committed; the orphaned tmp file is visible to gc().
    clean = _store(tmp_path)
    assert clean.get("k", KIND_SYMBOLIC) is None
    assert len(clean) == 0
    assert clean.gc() == 1
    # After the "restart", the put succeeds.
    assert clean.put("k", KIND_SYMBOLIC, {"x": 1})
    assert clean.get("k", KIND_SYMBOLIC) == {"x": 1}


def test_store_torn_write_quarantined_never_served(tmp_path):
    faults = FaultInjector("store.put.torn:1")
    store = _store(tmp_path, faults=faults)
    store.put("k", KIND_SYMBOLIC, {"x": 1})  # commits truncated bytes
    reader = _store(tmp_path)
    assert reader.get("k", KIND_SYMBOLIC) is None
    assert reader.stats.quarantined == 1
    assert not reader.contains("k", KIND_SYMBOLIC)
    assert list(reader.quarantine_dir.iterdir())
    # Recompute-and-put heals the entry.
    reader.put("k", KIND_SYMBOLIC, {"x": 1})
    assert reader.get("k", KIND_SYMBOLIC) == {"x": 1}


def test_store_corrupt_payload_quarantined(tmp_path):
    store = _store(tmp_path)
    store.put("k", KIND_SYMBOLIC, {"x": 1})
    path = store.path_for("k", KIND_SYMBOLIC)
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 0x55
    path.write_bytes(bytes(raw))
    assert store.get("k", KIND_SYMBOLIC) is None
    assert store.stats.quarantined == 1
    assert not path.exists()


def test_store_unpicklable_quarantined_not_crash(tmp_path):
    store = _store(tmp_path)
    store.put("k", KIND_SYMBOLIC, {"x": 1})
    path = store.path_for("k", KIND_SYMBOLIC)
    # Valid envelope framing around a garbage payload: recompute checksum
    # so only the unpickle step can object.
    import hashlib
    import struct

    data = path.read_bytes()
    hlen = struct.unpack(">I", data[4:8])[0]
    header = json.loads(data[8 : 8 + hlen])
    payload = b"not a pickle at all"
    header["payload_bytes"] = len(payload)
    header["checksum"] = hashlib.sha256(payload).hexdigest()
    raw = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(data[:4] + struct.pack(">I", len(raw)) + raw + payload)
    assert store.get("k", KIND_SYMBOLIC) is None
    assert store.stats.quarantined == 1


def test_store_transient_read_retries(tmp_path):
    store = _store(tmp_path)
    store.put("k", KIND_SYMBOLIC, {"x": 1})
    flaky = _store(tmp_path, faults=FaultInjector("store.get.transient:1"))
    assert flaky.get("k", KIND_SYMBOLIC) == {"x": 1}
    assert flaky.stats.transient_retries == 1


def test_store_transient_exhaustion_degrades_to_miss(tmp_path):
    store = _store(tmp_path)
    store.put("k", KIND_SYMBOLIC, {"x": 1})
    dead = _store(tmp_path, faults=FaultInjector("store.get.transient:*"))
    assert dead.get("k", KIND_SYMBOLIC) is None
    assert dead.stats.misses == 1
    assert dead.stats.transient_retries == dead.max_read_retries


def test_store_entries_and_verify(tmp_path):
    store = _store(tmp_path)
    store.put("a", KIND_SYMBOLIC, 1)
    store.put("b", KIND_RELABELING, 2)
    entries = {(e.key, e.kind) for e in store.entries()}
    assert entries == {("a", KIND_SYMBOLIC), ("b", KIND_RELABELING)}
    assert store.verify() == (2, 0)
    # Corrupt one entry: verify quarantines it.
    path = store.path_for("a", KIND_SYMBOLIC)
    path.write_bytes(path.read_bytes()[:-4])
    assert store.verify() == (1, 1)
    assert len(store) == 1


def test_store_pickles_real_symbolic_artifacts(tmp_path):
    """The store round-trips the engine's actual per-group artifacts."""
    problem = heat_transfer_2d(10)
    items = items_from_decomposition(decompose(problem, grid=(2, 2)))
    engine = BatchAssembler.for_cpu()
    batch = engine.assemble_batch(items)
    store = _store(tmp_path)
    for key, art in batch.artifacts.items():
        assert store.put(key, KIND_SYMBOLIC, art)
    for key, art in batch.artifacts.items():
        loaded = store.get(key, KIND_SYMBOLIC)
        assert loaded.fingerprint == art.fingerprint
        assert type(loaded.estimate) is type(art.estimate)
        assert loaded.prepared is not None
    assert pickle.loads(pickle.dumps(batch.artifacts)) is not None


# ---------------------------------------------------------------------------
# tiered cache


def _items(cells=10, grid=(3, 3)):
    problem = heat_transfer_2d(cells)
    return items_from_decomposition(decompose(problem, grid=grid))


def test_tiered_cache_matches_plain_cache(tmp_path):
    items = _items()
    plain = BatchAssembler.for_cpu(cache=PatternCache()).assemble_batch(items)
    tiered = BatchAssembler.for_cpu(
        cache=TieredPatternCache(_store(tmp_path))
    ).assemble_batch(items)
    import numpy as np

    for a, b in zip(plain.results, tiered.results):
        assert np.allclose(a.f, b.f)
    assert plain.stats.hits == tiered.stats.hits
    assert tiered.stats.store_misses == plain.stats.misses


def test_tiered_cache_warm_run_hits_store(tmp_path):
    store = _store(tmp_path)
    items = _items()
    cold = BatchAssembler.for_cpu(cache=TieredPatternCache(store)).assemble_batch(items)
    assert cold.stats.store_misses > 0 and cold.stats.store_hits == 0
    warm = BatchAssembler.for_cpu(cache=TieredPatternCache(store)).assemble_batch(items)
    assert warm.stats.store_misses == 0
    assert warm.stats.store_hits == cold.stats.store_misses
    assert warm.stats.hit_rate == 1.0
    assert warm.stats.analysis_seconds == 0.0
    import numpy as np

    for a, b in zip(cold.results, warm.results):
        assert np.allclose(a.f, b.f)


@pytest.mark.parametrize(
    "damage",
    [
        lambda data: data[:-6],
        # what the previous release wrote: ``SymbolicArtifacts`` changed
        # layout with the schema bump, so these must not be unpickled
        lambda data: _with_schema(data, SCHEMA_VERSION - 1),
    ],
    ids=["truncated", "previous-schema"],
)
def test_tiered_cache_quarantined_entry_recomputed(tmp_path, damage):
    store = _store(tmp_path)
    items = _items()
    BatchAssembler.for_cpu(cache=TieredPatternCache(store)).assemble_batch(items)
    # Damage every committed artifact, then re-run warm: each lookup must
    # quarantine and rebuild, never serve garbage.
    paths = list(store.objects_dir.glob("*/*.art"))
    assert paths
    for path in paths:
        path.write_bytes(damage(path.read_bytes()))
    batch = BatchAssembler.for_cpu(cache=TieredPatternCache(store)).assemble_batch(items)
    assert batch.stats.n_quarantined == len(paths)
    assert batch.stats.store_hits == 0
    ref = BatchAssembler.for_cpu(cache=PatternCache()).assemble_batch(items)
    import numpy as np

    for a, b in zip(batch.results, ref.results):
        assert np.allclose(a.f, b.f)
    # The rebuilt artifacts were re-committed and now verify clean.
    assert store.verify() == (len(paths), 0)


def test_tiered_cache_put_failure_degrades_to_memory_only(tmp_path, monkeypatch):
    store = _store(tmp_path)
    cache = TieredPatternCache(store)

    def broken_put(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(store, "put", broken_put)
    value, hit = cache.get_or_build("k", lambda: {"built": True})
    assert value == {"built": True} and not hit
    value2, hit2 = cache.get_or_build("k", lambda: {"built": False})
    assert value2 == {"built": True} and hit2


def test_tiered_cache_respects_lru_bound(tmp_path):
    store = _store(tmp_path)
    cache = TieredPatternCache(store, max_entries=1)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    assert cache.stats.evictions == 1
    # "a" was evicted from memory but persists on disk: a re-lookup is a
    # store hit, not a rebuild.
    value, hit = cache.get_or_build("a", lambda: (_ for _ in ()).throw(AssertionError))
    assert value == 1 and hit
    assert cache.stats.store_hits == 1
