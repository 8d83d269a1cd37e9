"""Unstructured workload: partition quality, grouping quality, speedup.

The first workload where grouping is *not* free: a jittered, irregularly
split unit square (:mod:`repro.part.meshes`) decomposed by the METIS-like
dual-graph partitioner (:mod:`repro.part.partitioner`) into 32 connected,
balanced subdomains.  No two subdomains are exact translates — every exact
fingerprint class is a singleton — so the only leverage left is the
rotation-invariant *pricing* layer of :mod:`repro.sparse.canonical`:

* **Grouping quality** (the headline assert): the near-match signature
  (``signature_mode="near"``) groups the 32 singleton exact classes into
  at most half as many pricing classes (observed: 13-15 on seeds 0-4), so
  approach planning and cost estimation are charged per *class* again.
* **Union execution** (the PR-7 assert): ``execution="union"`` pads the
  members of each near class into the structural union of their patterns
  and batches them exactly — the pricing-only classes above become
  *executed* groups.  The run must execute at least one padded class, cut
  total kernel launches by at least 2x vs per-member execution, and match
  per-member numerics to tight allclose.
* **Correctness**: grouped (stacked-kernel) execution matches per-member
  execution to tight allclose even when every group is a singleton.
* **Speedup reporting**: grouped-vs-per-member wall clock and the
  grouping-efficiency counters (members per executed group, singleton
  share) land in the CI ``BENCH_<run_id>`` artifact.

``docs/unstructured.md`` documents the workload and its knobs.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import PAPER_SCALE

RTOL, ATOL = 1e-9, 1e-10


def _build(n_parts: int, cells: int, seed: int):
    from repro.batch import BatchAssembler, items_from_decomposition
    from repro.core import default_config
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.part import jittered_square_mesh, partition_mesh

    mesh = jittered_square_mesh(cells, jitter=0.25, seed=seed)
    problem = heat_problem(mesh)  # floating: every subdomain is singular
    decomposition = decompose(
        problem, n_subdomains=n_parts, partitioner="rcb", seed=seed
    )
    baseline_cut = partition_mesh(mesh, n_parts, method="rcb", refine=False).edge_cut
    items = items_from_decomposition(decomposition)
    cfg = default_config("gpu", 2)

    # Timed through repro.obs spans instead of hand-rolled perf_counter
    # pairs: batch.group covers the stacks (here all of one member: the
    # grouped run *is* the per-member numerics behind assemble_group),
    # batch.member the members run singly — both inside batch.execute, the
    # comparable numeric-phase walls across execution modes.
    from repro.obs import tracing

    with tracing():
        grouped = BatchAssembler(config=cfg, signature_mode="near").assemble_batch(
            items, execution="grouped"
        )
    grouped_wall = grouped.trace.total("batch.group") + grouped.trace.total(
        "batch.member"
    )
    with tracing():
        member = BatchAssembler(config=cfg, signature_mode="near").assemble_batch(
            items, execution="per-member"
        )
    member_wall = member.trace.total("batch.member")
    with tracing():
        union = BatchAssembler(config=cfg, signature_mode="near").assemble_batch(
            items, execution="union"
        )
    return decomposition, baseline_cut, grouped, member, union, grouped_wall, member_wall


def test_unstructured_grouping_and_execution(benchmark):
    n_parts, cells = (32, 32) if PAPER_SCALE else (32, 24)
    seed = 0
    decomposition, baseline_cut, grouped, member, union, grouped_wall, member_wall = (
        benchmark.pedantic(
            lambda: _build(n_parts, cells, seed), rounds=1, iterations=1
        )
    )
    stats = grouped.stats
    n = decomposition.n_subdomains
    assert n == n_parts >= 32

    # Partition quality: connected balanced parts, refinement didn't hurt.
    report = decomposition.partition
    assert report.counts.min() >= 1
    assert report.edge_cut <= baseline_cut
    assert report.balance <= 1.1 + 1e-9

    # Exact fingerprints are useless here: every class is a singleton.
    assert stats.n_exact_groups == n
    assert stats.singleton_share == 1.0
    assert stats.members_per_group == 1.0

    # Headline: rotation-invariant near-match pricing classes shrink the 32
    # exact classes by at least 2x.
    n_near = stats.n_geometric_groups
    grouping_ratio = stats.n_exact_groups / n_near
    assert grouping_ratio >= 2.0, (
        f"near pricing classes {n_near} vs {stats.n_exact_groups} exact — "
        f"only {grouping_ratio:.2f}x"
    )

    # Grouped (stacked) execution matches per-member execution.
    for res_g, res_m in zip(grouped.results, member.results):
        scale = max(1.0, float(np.abs(res_m.f).max(initial=0.0)))
        assert np.allclose(res_g.f, res_m.f, rtol=RTOL, atol=ATOL * scale)

    # Union execution turns pricing-only near classes into executed groups:
    # at least one class runs padded, total kernel launches drop at least
    # 2x vs per-member, and the padded numerics stay exact.
    ustats = union.stats
    union_launches = ustats.kernel_launches
    member_launches = member.stats.kernel_launches
    assert ustats.n_union_groups > 0, "no near class accepted for union execution"
    assert union_launches * 2 <= member_launches, (
        f"union execution launched {union_launches} kernel(s) vs "
        f"{member_launches} per-member — less than the required 2x reduction"
    )
    for res_u, res_m in zip(union.results, member.results):
        scale = max(1.0, float(np.abs(res_m.f).max(initial=0.0)))
        assert np.allclose(res_u.f, res_m.f, rtol=RTOL, atol=ATOL * scale)

    speedup = member_wall / grouped_wall if grouped_wall > 0 else float("inf")
    launch_reduction = (
        member_launches / union_launches if union_launches else float("inf")
    )

    benchmark.extra_info["n_subdomains"] = n
    benchmark.extra_info["n_exact_groups"] = stats.n_exact_groups
    benchmark.extra_info["n_near_groups"] = n_near
    benchmark.extra_info["grouping_ratio"] = grouping_ratio
    benchmark.extra_info["singleton_share"] = stats.singleton_share
    benchmark.extra_info["edge_cut"] = report.edge_cut
    benchmark.extra_info["partition_balance"] = report.balance
    benchmark.extra_info["unstructured_grouped_speedup"] = speedup
    benchmark.extra_info["n_union_groups"] = ustats.n_union_groups
    benchmark.extra_info["n_union_members"] = ustats.n_union_members
    benchmark.extra_info["n_union_skipped"] = ustats.n_union_skipped
    benchmark.extra_info["union_fill_ratio"] = ustats.union_fill_ratio
    benchmark.extra_info["union_launches"] = union_launches
    benchmark.extra_info["member_launches"] = member_launches
    benchmark.extra_info["union_launch_reduction"] = launch_reduction

    print()
    print(f"jittered {cells}x{cells} square, {n} rcb subdomains (seed {seed})")
    print(f"partition:      {report.summary()} (unrefined cut {baseline_cut})")
    print(stats.summary())
    print(f"pricing:        {stats.n_exact_groups} exact -> {n_near} near "
          f"class(es) ({grouping_ratio:.2f}x)")
    print(f"execution wall: grouped {grouped_wall * 1e3:.1f} ms, "
          f"per-member {member_wall * 1e3:.1f} ms ({speedup:.2f}x)")
    print(f"union:          {ustats.n_union_members} member(s) in "
          f"{ustats.n_union_groups} padded class(es) at "
          f"{ustats.union_fill_ratio:.2f}x fill, launches "
          f"{member_launches} -> {union_launches} ({launch_reduction:.2f}x)")


def test_unstructured_near_planning_collapses(benchmark):
    """plan_population with the near signature prices one plan per near
    class instead of one per subdomain (only the planning is timed)."""
    from repro.batch import items_from_decomposition, near_fingerprint
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.feti.planner import plan_population
    from repro.part import jittered_square_mesh

    mesh = jittered_square_mesh(24, jitter=0.25, seed=1)
    decomposition = decompose(
        heat_problem(mesh), n_subdomains=32, partitioner="rcb", seed=1
    )
    items = items_from_decomposition(decomposition)

    pop = benchmark.pedantic(
        lambda: plan_population(
            [(it.factor, it.bt) for it in items],
            dim=2,
            expected_iterations=60,
            coords=[it.coords for it in items],
            signature="near",
        ),
        rounds=1,
        iterations=1,
    )
    assert pop.n_members == 32
    n_near = len({near_fingerprint(it.coords, it.bt).key for it in items})
    assert pop.n_groups == n_near
    assert pop.n_groups * 2 <= pop.n_members
    benchmark.extra_info["n_plan_groups"] = pop.n_groups
    print()
    print(f"near planning: {pop.n_members} members -> {pop.n_groups} plan(s)")
