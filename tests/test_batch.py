"""Tests for the batched assembly engine and its symbolic pattern cache."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.batch import (
    BatchAssembler,
    BatchItem,
    PatternCache,
    factor_fingerprint,
    geometric_fingerprint,
    items_from_decomposition,
    pattern_digest,
    symbolic_analysis_cost,
)
from repro.core import (
    PruningPlan,
    SchurAssembler,
    baseline_config,
    default_config,
    prepare_pattern,
    trsm_factor_split,
)
from repro.core.stepped import stepped_permutation
from repro.feti.planner import plan_population
from repro.gpu import A100_40GB, Executor
from repro.gpu.spec import PCIE4_X16
from repro.sparse import StackedCSC, cholesky, symbolic_from_factor
from tests.conftest import random_spd


@pytest.fixture(scope="module")
def workload_2d():
    from repro.bench import make_workload

    wl = make_workload(dim=2, target_dofs=578)
    return wl.factor, wl.bt


def _random_item(n: int, m: int, seed: int):
    factor = cholesky(random_spd(n, 0.1, seed), ordering="natural")
    bt = sp.random(n, m, density=0.2, random_state=seed, format="csc")
    return factor, bt


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_ignores_values(workload_2d):
    factor, bt = workload_2d
    fp1 = factor_fingerprint(factor, bt)
    bt2 = bt.copy()
    bt2.data = bt2.data * 3.0  # same pattern, different values
    assert factor_fingerprint(factor, bt2).key == fp1.key


def test_fingerprint_sees_pattern_changes(workload_2d):
    factor, bt = workload_2d
    fp1 = factor_fingerprint(factor, bt)
    bt2 = sp.csc_matrix(bt.shape)
    assert factor_fingerprint(factor, bt2).key != fp1.key
    assert fp1.short() == fp1.key[:12]


def test_factor_fingerprint_groups_by_pattern():
    """Stiffness matrices that share a pattern share the key; a different
    fill-reducing ordering of the same matrix does not."""
    k1 = random_spd(20, 0.2, 1)
    k2 = k1.copy()
    k2.data = k2.data + 0.5  # same pattern
    bt = sp.random(20, 5, density=0.3, random_state=0, format="csc")
    a = factor_fingerprint(cholesky(k1, ordering="nd"), bt)
    b = factor_fingerprint(cholesky(k2, ordering="nd"), bt)
    c = factor_fingerprint(cholesky(k1, ordering="natural"), bt)
    assert a.key == b.key
    assert a.key != c.key


def test_pattern_digest_validates():
    with pytest.raises(ValueError, match="sparse"):
        pattern_digest(np.eye(3))


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def test_cache_hit_miss_counters():
    cache = PatternCache()
    v1, hit1 = cache.get_or_build("a", lambda: 1)
    v2, hit2 = cache.get_or_build("a", lambda: 2)
    assert (v1, hit1) == (1, False)
    assert (v2, hit2) == (1, True)
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.hit_rate == 0.5
    assert "a" in cache and len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_cache_lru_eviction():
    cache = PatternCache(max_entries=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    cache.get_or_build("a", lambda: 1)  # refresh a
    cache.get_or_build("c", lambda: 3)  # evicts b
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.stats.evictions == 1


def test_cache_disabled():
    cache = PatternCache(max_entries=0)
    calls = []
    for _ in range(3):
        cache.get_or_build("a", lambda: calls.append(1))
    assert len(calls) == 3
    assert cache.stats.hits == 0 and cache.stats.misses == 3
    assert len(cache) == 0


def test_cache_validates():
    with pytest.raises(ValueError, match="max_entries"):
        PatternCache(max_entries=-1)


# ---------------------------------------------------------------------------
# pruning plan
# ---------------------------------------------------------------------------


def test_pruning_plan_matches_adhoc_scan(workload_2d):
    factor, bt = workload_2d
    cfg = default_config("gpu", 2)
    plan = PruningPlan.from_pattern(
        StackedCSC.pattern_of(factor.l), cfg.trsm_blocks.resolve(factor.n)
    )
    bt_rows = bt.tocsr()[factor.perm].tocsc()
    col_perm, shape = stepped_permutation(bt_rows)
    x1 = np.asarray(bt_rows[:, col_perm].toarray(), dtype=np.float64)
    x2 = x1.copy()
    ex1, ex2 = Executor(A100_40GB), Executor(A100_40GB)
    l = StackedCSC.from_matrices([factor.l])
    trsm_factor_split(ex1, l, x1[None], shape, cfg.trsm_blocks, storage="sparse", prune=True)
    trsm_factor_split(
        ex2, l, x2[None], shape, cfg.trsm_blocks, storage="sparse", prune=True, plan=plan
    )
    assert np.array_equal(x1, x2)
    assert ex1.elapsed == pytest.approx(ex2.elapsed)


def test_pruning_plan_rejects_mismatch(workload_2d):
    factor, bt = workload_2d
    cfg = default_config("gpu", 2)
    plan = PruningPlan(n=factor.n + 1, blocks=(), rows=(), nnz=())
    bt_rows = bt.tocsr()[factor.perm].tocsc()
    col_perm, shape = stepped_permutation(bt_rows)
    x = np.asarray(bt_rows[:, col_perm].toarray(), dtype=np.float64)
    with pytest.raises(ValueError, match="pruning plan"):
        trsm_factor_split(
            Executor(A100_40GB),
            StackedCSC.from_matrices([factor.l]),
            x[None],
            shape,
            cfg.trsm_blocks,
            plan=plan,
        )


# ---------------------------------------------------------------------------
# symbolic-from-factor and pattern-level estimation
# ---------------------------------------------------------------------------


def test_symbolic_from_factor_consistent(workload_2d):
    factor, _ = workload_2d
    sym = symbolic_from_factor(factor.l)
    assert sym.n == factor.n
    assert sym.nnz_l == factor.l.nnz
    assert np.array_equal(np.asarray(sym.col_counts), np.diff(factor.l.tocsc().indptr))
    # Parent of each non-root column lies strictly below it.
    nonroot = np.flatnonzero(sym.parent >= 0)
    assert np.all(sym.parent[nonroot] > nonroot)
    # Row i's below-diagonal pattern matches the CSR row of L.
    lr = factor.l.tocsr()
    i = sym.n // 2
    cols = lr.indices[lr.indptr[i] : lr.indptr[i + 1]]
    assert np.array_equal(sym.row(i), np.sort(cols[cols < i]))
    # The digest is stable and pattern-sensitive.
    assert sym.pattern_digest() == symbolic_from_factor(factor.l).pattern_digest()


def test_estimate_pattern_matches_estimate(workload_2d):
    factor, bt = workload_2d
    asm = SchurAssembler(config=default_config("gpu", 2), spec=A100_40GB, transfer=PCIE4_X16)
    full = asm.estimate(factor, bt)
    patt = StackedCSC.pattern_of(factor.l)
    bt_rows = bt.tocsr()[factor.perm].tocsc()
    # with and without the precomputed pruning plan: same chain, same prices
    assert full == asm.estimate_pattern(patt, prepare_pattern(bt_rows, asm.config))
    assert full == asm.estimate_pattern(patt, prepare_pattern(bt_rows, asm.config, patt))


# ---------------------------------------------------------------------------
# batch engine
# ---------------------------------------------------------------------------


def test_batch_identical_subdomains_analyze_once(workload_2d):
    factor, bt = workload_2d
    n = 8
    engine = BatchAssembler(config=default_config("gpu", 2))
    batch = engine.assemble_batch([BatchItem(factor, bt) for _ in range(n)])
    assert batch.stats.n_subdomains == n
    assert batch.stats.n_groups == 1
    assert batch.stats.misses == 1 and batch.stats.hits == n - 1
    assert batch.stats.hit_rate == pytest.approx((n - 1) / n)
    assert batch.stats.analysis_seconds_saved > 0
    # Numerics and simulated timings identical to independent assembly.
    ref = SchurAssembler(config=default_config("gpu", 2)).assemble(factor, bt)
    for res in batch.results:
        assert np.array_equal(res.f, ref.f)
        assert res.elapsed == pytest.approx(ref.elapsed)
    # Priced work agrees with the cached estimate and feeds the pipeline.
    est = engine.assembler.estimate(factor, bt)["total"]
    assert all(w.assembly == pytest.approx(est) for w in batch.work)
    pipe = engine.schedule(batch.work, mode="mix", n_threads=4, n_streams=4)
    assert pipe.makespan > 0
    assert batch.stats.throughput(pipe.makespan) > batch.stats.throughput()


def test_batch_all_unique_patterns_no_hits():
    items = [_random_item(16 + i, 4, seed=i) for i in range(4)]
    engine = BatchAssembler(config=default_config("gpu", 2))
    batch = engine.assemble_batch(items)
    assert batch.stats.n_groups == 4
    assert batch.stats.hits == 0
    assert batch.stats.hit_rate == 0.0
    assert batch.stats.analysis_seconds_saved == 0.0
    for (factor, bt), res in zip(items, batch.results):
        ref = SchurAssembler(config=default_config("gpu", 2)).assemble(factor, bt)
        assert np.array_equal(res.f, ref.f)


def test_batch_empty():
    engine = BatchAssembler()
    batch = engine.assemble_batch([])
    assert batch.results == [] and batch.work == []
    assert batch.stats.n_subdomains == 0
    assert batch.stats.hit_rate == 0.0
    assert batch.stats.preprocessing_seconds == 0.0
    assert batch.stats.throughput() == 0.0


def test_batch_zero_multiplier_bt(workload_2d):
    factor, _ = workload_2d
    bt0 = sp.csc_matrix((factor.n, 0))
    engine = BatchAssembler(config=default_config("gpu", 2))
    batch = engine.assemble_batch([(factor, bt0), (factor, bt0)])
    assert batch.stats.n_groups == 1
    for res in batch.results:
        assert res.f.shape == (0, 0)
    assert all(w.assembly >= 0.0 for w in batch.work)


def test_batch_estimate_only_mode(workload_2d):
    factor, bt = workload_2d
    engine = BatchAssembler()
    batch = engine.plan_batch([(factor, bt)] * 3)
    assert all(r is None for r in batch.results)
    assert len(batch.work) == 3
    assert batch.stats.assembly_seconds > 0


def test_batch_no_cache_baseline_charges_more(workload_2d):
    factor, bt = workload_2d
    items = [(factor, bt)] * 5
    cached = BatchAssembler().plan_batch(items)
    nocache = BatchAssembler(cache=PatternCache(max_entries=0)).plan_batch(items)
    assert nocache.stats.hits == 0
    assert nocache.stats.analysis_seconds > cached.stats.analysis_seconds
    assert nocache.stats.preprocessing_seconds > cached.stats.preprocessing_seconds
    # Only the analysis differs; the numeric stages are priced identically.
    assert nocache.stats.assembly_seconds == pytest.approx(cached.stats.assembly_seconds)


def test_batch_cpu_engine(workload_2d):
    factor, bt = workload_2d
    engine = BatchAssembler.for_cpu()
    batch = engine.assemble_batch([(factor, bt)] * 2)
    ref = SchurAssembler.for_cpu().assemble(factor, bt)
    for res in batch.results:
        assert np.array_equal(res.f, ref.f)
    pipe = engine.schedule(batch.work, n_threads=2, n_streams=0)
    assert pipe.makespan > 0


def test_batch_baseline_config(workload_2d):
    """The no-stepped baseline goes through the prepared path unchanged."""
    factor, bt = workload_2d
    cfg = baseline_config("sparse")
    engine = BatchAssembler(config=cfg)
    batch = engine.assemble_batch([(factor, bt)] * 2)
    ref = SchurAssembler(config=cfg).assemble(factor, bt)
    for res in batch.results:
        assert np.array_equal(res.f, ref.f)


def test_batch_shared_cache_across_engines(workload_2d):
    factor, bt = workload_2d
    cache = PatternCache()
    e1 = BatchAssembler(cache=cache)
    e2 = BatchAssembler(cache=cache)
    b1 = e1.assemble_batch([(factor, bt)], execute=False)
    b2 = e2.assemble_batch([(factor, bt)], execute=False)
    assert b1.stats.misses == 1
    assert b2.stats.hits == 1 and b2.stats.misses == 0


def test_batch_shared_cache_keys_by_device(workload_2d):
    """A GPU-priced estimate must not leak into a CPU engine sharing the
    same cache: the key mixes in the device/transfer identity."""
    factor, bt = workload_2d
    cache = PatternCache()
    gpu = BatchAssembler(cache=cache)
    cpu = BatchAssembler.for_cpu(cache=cache)
    bg = gpu.plan_batch([(factor, bt)])
    bc = cpu.plan_batch([(factor, bt)])
    assert bc.stats.misses == 1 and bc.stats.hits == 0  # no cross-device hit
    assert bg.work[0].assembly != pytest.approx(bc.work[0].assembly)
    assert bc.work[0].assembly == pytest.approx(
        cpu.assembler.estimate(factor, bt)["total"]
    )


def test_batch_artifacts_expose_symbolic(workload_2d):
    factor, bt = workload_2d
    engine = BatchAssembler()
    batch = engine.plan_batch([(factor, bt)])
    (art,) = batch.artifacts.values()
    assert art.symbolic.n == factor.n
    assert art.symbolic.nnz_l == factor.l.nnz
    assert art.symbolic.pattern_digest()  # hashable view present
    assert art.fingerprint.n == factor.n and art.fingerprint.m == bt.shape[1]


def test_cache_get_is_pure_peek():
    cache = PatternCache(max_entries=2)
    cache.get_or_build("a", lambda: 1)
    cache.get_or_build("b", lambda: 2)
    assert cache.get("a") == 1  # must NOT refresh LRU order
    cache.get_or_build("c", lambda: 3)  # evicts a (oldest), not b
    assert "a" not in cache and "b" in cache
    assert cache.get("ghost") is None
    assert cache.stats.hits == 0 and cache.stats.misses == 3


def test_batch_stats_summary(workload_2d):
    factor, bt = workload_2d
    stats = BatchAssembler().plan_batch([(factor, bt)] * 5).stats
    assert stats.n_subdomains == 5
    text = stats.summary()
    assert "hit rate" in text and "saved" in text


def test_symbolic_analysis_cost_scales():
    small = symbolic_analysis_cost(100, 500, 10, 50)
    large = symbolic_analysis_cost(10000, 500000, 1000, 5000)
    assert 0 < small < large


def test_batch_validates_inputs(workload_2d):
    factor, bt = workload_2d
    engine = BatchAssembler()
    with pytest.raises(ValueError, match="sparse"):
        engine.assemble_batch([(factor, bt.toarray())])


# ---------------------------------------------------------------------------
# population planning
# ---------------------------------------------------------------------------


def test_plan_population_groups(workload_2d):
    factor, bt = workload_2d
    pop = plan_population([(factor, bt)] * 4, dim=2, expected_iterations=50)
    assert pop.n_members == 4
    assert pop.n_groups == 1
    chosen = {pop.chosen_for(i) for i in range(4)}
    assert len(chosen) == 1
    single = pop.plan_for(0)
    assert single.chosen == next(iter(chosen))


def test_plan_population_distinct_patterns():
    members = [_random_item(18 + i, 4, seed=10 + i) for i in range(3)]
    pop = plan_population(members, dim=2, expected_iterations=10)
    assert pop.n_groups == 3


# ---------------------------------------------------------------------------
# canonical grouping on a real structured decomposition
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def floating_3x3():
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    problem = heat_transfer_2d(12, dirichlet=())
    decomposition = decompose(problem, grid=(3, 3))
    return decomposition, items_from_decomposition(decomposition)


def test_batch_engine_groups_structured_grid(floating_3x3):
    """A floating 3x3 decomposition has 9 subdomains in 9 translate-classes;
    the canonical relabeling collapses them to the 3 orientation classes
    (corner/edge/interior), whose members share one cache entry each."""
    decomposition, items = floating_3x3
    engine = BatchAssembler(config=default_config("gpu", 2))
    batch = engine.assemble_batch(items)
    assert batch.stats.n_subdomains == 9
    # No two subdomains of a 3x3 grid are translates (9 exact classes), but
    # the relabeled mirror images share: 3 executed canonical groups.
    assert batch.stats.n_exact_groups == 9
    assert batch.stats.n_groups == 3
    assert batch.stats.mirrors_shared == 6
    assert batch.stats.n_geometric_groups == 3
    assert set().union(*batch.geometric_groups.values()) == set(range(9))
    assert sorted(map(sorted, batch.groups.values())) == sorted(
        map(sorted, batch.geometric_groups.values())
    )
    # Results match the per-subdomain path (same factor, canonical columns
    # permuted back: identical arithmetic up to kernel association order).
    ref = SchurAssembler(config=default_config("gpu", 2))
    for it, res in zip(items, batch.results):
        expect = ref.assemble(it.factor, it.bt).f
        scale = max(1.0, float(np.abs(expect).max(initial=0.0)))
        assert np.allclose(res.f, expect, rtol=1e-9, atol=1e-10 * scale)


def test_batch_items_without_coords_skip_geometric_groups(workload_2d):
    factor, bt = workload_2d
    engine = BatchAssembler(config=default_config("gpu", 2))
    batch = engine.plan_batch([BatchItem(factor, bt), BatchItem(factor, bt)])
    assert batch.stats.n_geometric_groups == 0
    assert batch.geometric_groups == {}


def test_plan_population_geometric_grouping(floating_3x3):
    _, items = floating_3x3
    members = [(it.factor, it.bt) for it in items]
    coords = [it.coords for it in items]
    exact = plan_population(members, dim=2, expected_iterations=30)
    geo = plan_population(members, dim=2, expected_iterations=30, coords=coords)
    assert geo.n_groups == 3
    assert geo.n_groups <= exact.n_groups
    # Same approach decisions either way: pricing is isomorphism-invariant.
    assert [geo.chosen_for(i) for i in range(9)] == [
        exact.chosen_for(i) for i in range(9)
    ]
    with pytest.raises(ValueError, match="one coordinate array per member"):
        plan_population(members, dim=2, expected_iterations=30, coords=coords[:-1])


def test_geometric_fingerprint_not_an_exact_key(floating_3x3):
    """Members of one geometric class may have different exact patterns —
    the geometric key prices, the factor key caches."""
    decomposition, items = floating_3x3
    by_geo: dict[str, list[int]] = {}
    for i, it in enumerate(items):
        by_geo.setdefault(geometric_fingerprint(it.coords, it.bt).key, []).append(i)
    corner_class = next(v for v in by_geo.values() if len(v) == 4)
    exact = {factor_fingerprint(items[i].factor, items[i].bt).key for i in corner_class}
    assert len(exact) > 1
