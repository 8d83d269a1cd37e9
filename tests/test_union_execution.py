"""Value-tolerant union-pattern execution (``execution="union"``).

Property tests of the padded near-class tier: the structural union of the
members' patterns (:func:`repro.sparse.canonical.union_plan`), the
identity-prefix embeddings that map each member in and out of the padded
stack, the fill-ratio cost guard, the kernel-cost parity of the padded
estimates, and — end to end through the engine — exactness of the padded
numerics against per-member execution across the mesh zoo, both graph
partitioners and a range of fill caps.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchAssembler, items_from_decomposition
from repro.batch.engine import build_artifacts, union_padding_overhead
from repro.core import default_config
from repro.dd import decompose
from repro.fem import heat_problem
from repro.part import make_mesh
from repro.sparse.canonical import pattern_union, union_plan
from repro.sparse.stacked import StackedCSC, stack_into_union

RTOL, ATOL = 1e-10, 1e-12


# ---------------------------------------------------------------------------
# plan-level properties on random member patterns
# ---------------------------------------------------------------------------


def _random_members(rng: np.random.Generator, group: int):
    """Random lower-triangular factors + gluing patterns of varying sizes."""
    n_max = int(rng.integers(4, 10))
    m_max = int(rng.integers(3, 8))
    ls, bts = [], []
    for _ in range(group):
        n = int(rng.integers(3, n_max + 1))
        m = int(rng.integers(2, m_max + 1))
        dense = np.tril(rng.random((n, n)) * (rng.random((n, n)) < 0.4), k=-1)
        np.fill_diagonal(dense, 1.0 + rng.random(n))
        ls.append(sp.csc_matrix(dense))
        bts.append(sp.csc_matrix(rng.random((n, m)) * (rng.random((n, m)) < 0.5)))
    return ls, bts


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), group=st.integers(2, 4))
def test_union_plan_embeddings_and_containment(seed, group):
    """Embeddings are injective identity prefixes, extraction inverts the
    padding, the union contains every member pattern, and the fill ratio
    is the padded/exact stored-entry quotient (always >= 1)."""
    rng = np.random.default_rng(seed)
    ls, bts = _random_members(rng, group)
    plan = union_plan(ls, bts)
    n_u, m_u = plan.shape
    assert n_u == max(l.shape[0] for l in ls)
    assert m_u == max(b.shape[1] for b in bts)

    l_dense = plan.l_union.pattern_csc().toarray() != 0
    bt_dense = plan.bt_union.pattern_csc().toarray() != 0
    for g in range(group):
        emb = plan.embeddings[g]
        n_g, m_g = ls[g].shape[0], bts[g].shape[1]
        # identity-prefix embedding: injective by construction, invertible
        # by slicing the leading block back out
        assert np.array_equal(emb.rows, np.arange(n_g))
        assert np.array_equal(emb.cols, np.arange(m_g))
        assert np.unique(emb.rows).size == emb.rows.size
        f_union = rng.random((m_u, m_u))
        assert np.array_equal(emb.extract_sc(f_union), f_union[:m_g, :m_g])
        # containment: every member entry has a union position (members
        # embed at the identity prefix, so slice the union down first)
        assert l_dense[:n_g, :n_g][ls[g].toarray() != 0].all()
        assert bt_dense[:n_g, :m_g][bts[g].toarray() != 0].all()

    member_nnz = sum(l.nnz for l in ls) + sum(b.nnz for b in bts)
    assert plan.member_nnz == member_nnz
    assert plan.padded_nnz == group * (plan.l_union.nnz + plan.bt_union.nnz)
    assert plan.fill_ratio == plan.padded_nnz / plan.member_nnz
    assert plan.fill_ratio >= 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), group=st.integers(2, 4))
def test_union_scatter_round_trips_member_values(seed, group):
    """Scattering members into the union stack and reading the leading
    block back reproduces each member exactly; the padding is the
    [[L, 0], [0, I]] block structure."""
    rng = np.random.default_rng(seed)
    ls, bts = _random_members(rng, group)
    plan = union_plan(ls, bts)
    stacked = stack_into_union(ls, plan.l_union, pad_diagonal=True)
    for g in range(group):
        n_g = ls[g].shape[0]
        padded = stacked.member(g).toarray()
        assert np.array_equal(padded[:n_g, :n_g], ls[g].toarray())
        assert np.array_equal(padded[:n_g, n_g:], np.zeros((n_g, padded.shape[1] - n_g)))
        tail = padded[n_g:, :]
        expect = np.zeros_like(tail)
        np.fill_diagonal(expect[:, n_g:], 1.0)
        assert np.array_equal(tail, expect)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), group=st.integers(2, 4))
def test_pattern_union_is_canonical_sorted_csc(seed, group):
    """The union pattern is sorted canonical CSC and exactly the set union
    of the members' entry positions."""
    rng = np.random.default_rng(seed)
    ls, _ = _random_members(rng, group)
    n_u = max(l.shape[0] for l in ls)
    union = pattern_union(ls, (n_u, n_u))
    # sorted within each column, cumulative indptr
    for c in range(n_u):
        rows = union.indices[union.indptr[c] : union.indptr[c + 1]]
        assert np.all(np.diff(rows) > 0)
    expected = set()
    for l in ls:
        lc = l.tocsc()
        cols = np.repeat(np.arange(lc.shape[1]), np.diff(lc.indptr))
        expected |= set(zip(lc.indices.tolist(), cols.tolist()))
    got = set(zip(union.indices.tolist(), union.entry_columns().tolist()))
    assert got == expected


# ---------------------------------------------------------------------------
# end-to-end: union == per-member across the mesh zoo x partitioners x caps
# ---------------------------------------------------------------------------


def _workload(mesh: str, partitioner: str, n_parts: int, seed: int, cells: int = 12):
    problem = heat_problem(make_mesh(mesh, cells, seed=seed))
    decomposition = decompose(
        problem, n_subdomains=n_parts, partitioner=partitioner, seed=seed
    )
    return items_from_decomposition(decomposition)


def _run(items, execution: str, cap: float | None = None):
    engine = BatchAssembler(
        config=default_config("gpu", 2),
        signature_mode="near",
        union_fill_cap=cap,
    )
    return engine.assemble_batch(items, execution=execution)


def _assert_allclose(a, b):
    assert len(a.results) == len(b.results)
    for res_a, res_b in zip(a.results, b.results):
        scale = max(1.0, float(np.abs(res_b.f).max(initial=0.0)))
        assert np.allclose(res_a.f, res_b.f, rtol=RTOL, atol=ATOL * scale)


@settings(max_examples=6, deadline=None)
@given(
    mesh=st.sampled_from(("jittered", "lshape", "strip")),
    partitioner=st.sampled_from(("rcb", "spectral")),
    n_parts=st.sampled_from((6, 8)),
    seed=st.integers(0, 2),
    cap=st.sampled_from((1.5, 4.0, 8.0, float("inf"))),
)
def test_union_matches_per_member_hypothesis(mesh, partitioner, n_parts, seed, cap):
    """Padded union execution is numerically exact against per-member
    execution for every mesh-zoo workload, partitioner and fill cap; the
    union bookkeeping stays consistent."""
    items = _workload(mesh, partitioner, n_parts, seed)
    union = _run(items, "union", cap=cap)
    member = _run(items, "per-member")
    _assert_allclose(union, member)
    stats = union.stats
    assert stats.n_union_members == sum(len(v) for v in union.union_groups.values())
    assert stats.n_union_groups == len(union.union_groups)
    assert stats.n_union_members <= stats.n_subdomains
    if stats.n_union_groups:
        assert stats.union_fill_ratio >= 1.0
        assert stats.union_fill_ratio <= cap
    assert stats.kernel_launches <= member.stats.kernel_launches


# ---------------------------------------------------------------------------
# fill-ratio cost guard at the cap boundary
# ---------------------------------------------------------------------------


def _engine_bt_rows(item) -> sp.csc_matrix:
    """Replicate the engine's normalization of one item's gluing rows."""
    bt_perm = item.bt.tocsr()[item.factor.perm].tocsc()
    if item.relabeling is not None:
        bt_perm = bt_perm[:, item.relabeling.col_perm]
    return bt_perm


@pytest.fixture(scope="module")
def jittered_items():
    return _workload("jittered", "rcb", 8, seed=0, cells=16)


def test_cost_guard_boundary_is_exact(jittered_items):
    """cap == fill keeps a class (the guard is strictly greater-than);
    cap one ulp below the largest fill skips exactly the classes at it."""
    items = jittered_items
    res = _run(items, "union", cap=float("inf"))
    assert res.union_groups, "workload produced no union-eligible near class"
    assert res.stats.n_union_skipped == 0

    fills = {
        geo: union_plan(
            [items[i].factor.l for i in members],
            [_engine_bt_rows(items[i]) for i in members],
        ).fill_ratio
        for geo, members in res.union_groups.items()
    }
    fmax = max(fills.values())
    at_max = sum(1 for f in fills.values() if f == fmax)

    kept = _run(items, "union", cap=fmax)
    assert kept.stats.n_union_groups == len(fills)
    assert kept.stats.n_union_skipped == 0

    below = _run(items, "union", cap=float(np.nextafter(fmax, 0.0)))
    assert below.stats.n_union_skipped == at_max
    assert below.stats.n_union_groups == len(fills) - at_max
    # skipped members fall back to the exact paths and stay correct
    _assert_allclose(below, _run(items, "per-member"))


def test_cost_guard_skips_everything_below_one(jittered_items):
    """A cap below every possible fill ratio disables padding entirely
    (every eligible class skipped, results still exact)."""
    items = jittered_items
    eligible = len(_run(items, "union", cap=float("inf")).union_groups)
    res = _run(items, "union", cap=0.5)
    assert res.stats.n_union_groups == 0 and not res.union_groups
    assert res.stats.n_union_skipped == eligible
    assert res.stats.union_fill_ratio == 1.0  # nothing ran padded
    _assert_allclose(res, _run(items, "per-member"))


# ---------------------------------------------------------------------------
# kernel-cost parity of the padded artifacts
# ---------------------------------------------------------------------------


def test_union_estimate_prices_padding_conservatively(jittered_items):
    """For every executed union class: the padded estimate charges at least
    the exact per-member total (padding overhead >= 0) and the batched
    class launches at most 1/G of the members' per-member launches."""
    items = jittered_items
    res = _run(items, "union", cap=float("inf"))
    member = _run(items, "per-member")
    engine = BatchAssembler(config=default_config("gpu", 2), signature_mode="near")
    spec, transfer = engine.assembler.spec, engine.assembler.transfer
    per_member_launches = member.stats.kernel_launches / member.stats.n_subdomains

    for geo, members in res.union_groups.items():
        plan = union_plan(
            [items[i].factor.l for i in members],
            [_engine_bt_rows(items[i]) for i in members],
        )
        # a union is just another pattern pair for the one artifact builder
        union_art = build_artifacts(
            StackedCSC.pattern_of(plan.l_union.pattern_csc()),
            plan.bt_union.pattern_csc(),
            engine.config,
            spec,
            transfer,
            fingerprint=None,
        )
        member_arts = [
            build_artifacts(
                StackedCSC.pattern_of(items[i].factor.l),
                _engine_bt_rows(items[i]),
                engine.config,
                spec,
                transfer,
                fingerprint=None,
            )
            for i in members
        ]
        overhead = union_padding_overhead(
            union_art.estimate, [a.estimate for a in member_arts]
        )
        assert overhead >= -1e-15
        # padded flops >= exact per member: the union pattern is a superset
        assert all(
            union_art.estimate["total"] + 1e-15 >= a.estimate["total"]
            for a in member_arts
        )
        # one batched pipeline per class: launches <= 1/G of per-member
        launches = res.stats.group_launches[f"union:{geo}"]
        assert launches * len(members) <= per_member_launches * len(members)
        assert launches <= per_member_launches
