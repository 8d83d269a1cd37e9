"""Symbolic work once per class: reuse and the staged search are invisible.

The dd -> batch bridge shares canonical relabelings and fill-reducing
orderings between subdomains whose inputs are bit-equal, and the
orientation search evaluates its expensive parts only for orientations
that tie on the cheap ones.  Neither may change a single output bit:

* ``items_from_decomposition`` equals a member-by-member reference (direct
  ``canonical_relabeling`` + ``factorize_subdomain``, no reuse scope) on
  every relabeling field and on ``factor.perm``, ``L`` and ``flops``;
* the staged search equals the brute-force loop over whole candidate
  strings it replaced — kept verbatim below as the reference;
* look-alike inputs (same lattice, different gluing; same pattern,
  different coordinates; another tolerance or rotation mode) never share;
* the saving is per call: a second call searches and orders as often as
  the first, so nothing is remembered process-wide.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sparse.canonical as canonical
import repro.sparse.ordering as ordering
from repro.batch.engine import items_from_decomposition
from repro.dd import decompose
from repro.fem import heat_problem, heat_transfer_2d, heat_transfer_3d
from repro.feti.operator import factorize_subdomain
from repro.obs import tracing
from repro.part import make_mesh
from repro.sparse import canonical_relabeling, cholesky, compute_ordering
from repro.sparse.canonical import permute_symmetric
from repro.sparse.reuse import SymbolicReuse
from tests.conftest import grid_coords, laplacian_2d

# ---------------------------------------------------------------------------
# Reference: the search as it was before staging, verbatim
# ---------------------------------------------------------------------------


def _ref_pattern_bytes(a: sp.spmatrix) -> bytes:
    ac = a.tocsc()
    ac.sort_indices()
    return b"".join(
        np.ascontiguousarray(np.asarray(arr, dtype=np.int64)).tobytes() + b"|"
        for arr in (np.asarray(ac.shape), ac.indptr, ac.indices)
    )


def _ref_canonical_columns(bt_rows: sp.spmatrix) -> tuple[np.ndarray, bytes]:
    bc = bt_rows.tocsc()
    bc.sort_indices()
    m = bc.shape[1]
    keys = []
    for j in range(m):
        rows = np.asarray(bc.indices[bc.indptr[j] : bc.indptr[j + 1]], dtype=">i8")
        keys.append((rows.size, rows.tobytes()))
    col_perm = np.asarray(sorted(range(m), key=keys.__getitem__), dtype=np.intp)
    key_bytes = b"".join(keys[j][1] + b";" for j in col_perm)
    return col_perm, key_bytes


def _ref_relabeling(
    coords,
    k=None,
    bt=None,
    tolerance=canonical.DEFAULT_TOLERANCE,
    value_tolerance=canonical.DEFAULT_VALUE_TOLERANCE,
    rotations=False,
) -> dict:
    """Every ``CanonicalRelabeling`` field by brute force over all orientations."""
    coords = np.asarray(coords, dtype=np.float64)
    if coords.ndim == 1:
        coords = coords[:, None]
    rotated = False
    if rotations:
        coords, rotated = canonical.rotation_coords(coords)
    frame = canonical.canonical_frame(coords, tolerance)
    lat = frame.lattice
    n, d = lat.shape
    multiplicity = None
    kq = None
    btr = None
    if bt is not None:
        btr = bt.tocsr()
        multiplicity = np.asarray(btr.getnnz(axis=1), dtype=np.int64)
    if k is not None:
        kq = canonical.quantize_pattern(k, value_tolerance)
    feats = canonical._as_features(multiplicity, n)

    best = None
    for perm, signs in canonical.orientation_transforms(max(d, 1)) if d else [((), ())]:
        pts, rows, order = canonical._oriented_rows(lat, feats, perm, signs)
        cand = np.ascontiguousarray(rows[order]).tobytes()
        cp = np.empty(0, dtype=np.intp)
        if kq is not None:
            cand += b"#" + _ref_pattern_bytes(kq[order][:, order])
        if btr is not None:
            cp, col_bytes = _ref_canonical_columns(btr[order])
            cand += b"#" + col_bytes
        if best is None or cand < best[0]:
            best = (cand, perm, signs, order, pts[order], cp)

    cand, axis_perm, axis_signs, dof_perm, lattice, col_perm = best
    h = hashlib.sha256()
    h.update(
        np.asarray(
            [
                n,
                d,
                feats.shape[1],
                int(k is not None),
                int(bt is not None),
                int(rotations) + int(rotated),
            ],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(b"|")
    h.update(cand)
    return {
        "signature": h.hexdigest(),
        "axis_perm": tuple(int(p) for p in axis_perm),
        "axis_signs": tuple(int(s) for s in axis_signs),
        "dof_perm": dof_perm,
        "col_perm": col_perm,
        "lattice": lattice,
        "tolerance": tolerance,
        "value_tolerance": value_tolerance,
    }


RELABELING_FIELDS = (
    "signature",
    "axis_perm",
    "axis_signs",
    "dof_perm",
    "col_perm",
    "lattice",
    "tolerance",
    "value_tolerance",
)


def _assert_bit_equal(got, want, what: str) -> None:
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what
    else:
        assert got == want, what


def _assert_same_relabeling(got, want, where: str) -> None:
    if want is None:
        assert got is None, where
        return
    for name in RELABELING_FIELDS:
        expected = want[name] if isinstance(want, dict) else getattr(want, name)
        _assert_bit_equal(getattr(got, name), expected, f"{where}: relabeling.{name}")


def _assert_same_factor(got, want, where: str) -> None:
    _assert_bit_equal(got.perm, want.perm, f"{where}: factor.perm")
    for name in ("indptr", "indices", "data"):
        _assert_bit_equal(
            getattr(got.l, name), getattr(want.l, name), f"{where}: L.{name}"
        )
    assert got.flops == want.flops, f"{where}: flops"
    assert got.engine == want.engine, where


# ---------------------------------------------------------------------------
# Bit-identity of the bridge against the member-by-member reference
# ---------------------------------------------------------------------------


def _jittered():
    problem = heat_problem(make_mesh("jittered", 16, seed=3), dirichlet=())
    return decompose(problem, n_subdomains=12, partitioner="rcb", seed=3)


def _lshape():
    problem = heat_problem(make_mesh("lshape", 10, seed=0), dirichlet=())
    return decompose(problem, n_subdomains=6, partitioner="spectral", seed=0)


BRIDGE_CASES = {
    "2d-5x5-floating": (
        lambda: decompose(heat_transfer_2d(20, dirichlet=()), grid=(5, 5)),
        {},
    ),
    "2d-4x4-dirichlet-left": (
        lambda: decompose(heat_transfer_2d(16, dirichlet=("left",)), grid=(4, 4)),
        {},
    ),
    "3d-2x2x2": (
        lambda: decompose(heat_transfer_3d(6, dirichlet=()), grid=(2, 2, 2)),
        {},
    ),
    "3d-3x3x3": (
        lambda: decompose(heat_transfer_3d(6, dirichlet=()), grid=(3, 3, 3)),
        {},
    ),
    "jittered-rcb-12": (_jittered, {}),
    "lshape-spectral-rotations": (_lshape, {"rotations": True}),
    "2d-5x5-no-canonicalize": (
        lambda: decompose(heat_transfer_2d(20, dirichlet=()), grid=(5, 5)),
        {"canonicalize": False},
    ),
}


@pytest.mark.parametrize("case", sorted(BRIDGE_CASES))
def test_bridge_equals_member_by_member_reference(case):
    build, options = BRIDGE_CASES[case]
    decomposition = build()
    items = items_from_decomposition(decomposition, **options)
    assert len(items) == decomposition.n_subdomains
    canonicalize = options.get("canonicalize", True)
    rotations = options.get("rotations", False)
    for sub, item in zip(decomposition.subdomains, items):
        where = f"{case}/sub{sub.index}"
        rel = None
        if canonicalize:
            rel = canonical_relabeling(
                sub.coords, k=sub.k, bt=sub.bt, rotations=rotations
            )
            # ... which itself equals the brute force over whole candidates.
            _assert_same_relabeling(
                rel,
                _ref_relabeling(sub.coords, k=sub.k, bt=sub.bt, rotations=rotations),
                where,
            )
        _assert_same_relabeling(item.relabeling, rel, where)
        _assert_same_factor(
            item.factor, factorize_subdomain(sub, relabeling=rel), where
        )


def test_shared_results_are_the_same_read_only_objects():
    decomposition = decompose(heat_transfer_2d(20, dirichlet=()), grid=(5, 5))
    items = items_from_decomposition(decomposition)
    # The 9 interior subdomains are translates: one relabeling object.
    interior = [items[5 * i + j].relabeling for i in (1, 2, 3) for j in (1, 2, 3)]
    assert all(rel is interior[0] for rel in interior)
    assert items[0].relabeling is not interior[0]
    for item in items:
        rel = item.relabeling
        for arr in (rel.dof_perm, rel.col_perm, rel.lattice):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0
        # The consumers still work on the read-only arrays.
        f = np.arange(rel.n_cols**2, dtype=np.float64).reshape(rel.n_cols, rel.n_cols)
        back = rel.unapply_sc(f)
        assert np.array_equal(back[np.ix_(rel.col_perm, rel.col_perm)], f)
        v = np.arange(rel.n_dofs, dtype=np.float64)
        assert np.array_equal(rel.unapply_vector(rel.apply_vector(v)), v)


def test_stored_ordering_is_read_only_and_passes_through_cholesky():
    a = laplacian_2d(6, 5)
    coords = grid_coords(6, 5)
    reuse = SymbolicReuse()
    first = compute_ordering(a, "nd", coords=coords, reuse=reuse)
    again = compute_ordering(a.copy(), "nd", coords=coords.copy(), reuse=reuse)
    assert again is first and not first.flags.writeable
    plain = compute_ordering(a, "nd", coords=coords)
    assert plain.flags.writeable and np.array_equal(plain, first)
    shared = cholesky(a, perm=first, conform=True)
    own = cholesky(a, ordering="nd", coords=coords, conform=True)
    _assert_same_factor(shared, own, "cholesky(perm=stored)")


# ---------------------------------------------------------------------------
# Staged search == brute force, on generated labelled structures
# ---------------------------------------------------------------------------


@st.composite
def labelled_structures(draw):
    """Small lattices with a stiffness and a gluing matrix on top.

    ``symmetric`` draws keep the full grid Laplacian and glue every DOF
    once — every orientation then produces the same candidate string, the
    all-tie case where the first transform in enumeration order must win.
    Otherwise random symmetric couplings and random gluing columns (empty
    and multi-entry ones included) break the symmetry partially.
    """
    dim = draw(st.sampled_from((1, 2, 2, 3)))
    shape = tuple(draw(st.integers(2, 4 if dim < 3 else 3)) for _ in range(dim))
    axes = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape], indexing="ij")
    coords = np.column_stack([ax.ravel() for ax in axes])
    n = coords.shape[0]
    # Nearest-neighbour stiffness: symmetric under every lattice symmetry.
    dist = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
    dense = np.where(dist == 1.0, -1.0, 0.0)
    np.fill_diagonal(dense, 2.0 * dim)
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if symmetric:
        bt = sp.identity(n, format="csc")
    else:
        extra = np.triu(rng.random((n, n)) < draw(st.sampled_from((0.0, 0.1, 0.3))), 1)
        dense = dense - (extra + extra.T)
        m = draw(st.integers(0, 2 * n))
        fill = draw(st.sampled_from((0.0, 1.0 / n, 2.5 / n)))
        pattern = rng.random((n, m)) < fill
        if m and draw(st.booleans()):
            # One-entry columns, the shape real gluing matrices have.
            pattern[:] = False
            pattern[rng.integers(0, n, size=m), np.arange(m)] = True
        bt = sp.csc_matrix(np.where(pattern, rng.choice((-1.0, 1.0), size=(n, m)), 0.0))
    offset = draw(st.integers(-8, 8))
    use_k = draw(st.sampled_from((True, True, False)))
    use_bt = draw(st.sampled_from((True, True, False)))
    return (
        coords + offset,
        sp.csr_matrix(dense) if use_k else None,
        bt if use_bt else None,
    )


@given(structure=labelled_structures(), rotations=st.booleans())
@settings(max_examples=120, deadline=None)
def test_staged_search_equals_brute_force(structure, rotations):
    coords, k, bt = structure
    got = canonical_relabeling(coords, k=k, bt=bt, rotations=rotations)
    want = _ref_relabeling(coords, k=k, bt=bt, rotations=rotations)
    _assert_same_relabeling(got, want, "staged vs brute force")
    # A reuse scope returns the same thing, first as a miss, then as a hit.
    reuse = SymbolicReuse()
    miss = canonical_relabeling(coords, k=k, bt=bt, rotations=rotations, reuse=reuse)
    hit = canonical_relabeling(coords, k=k, bt=bt, rotations=rotations, reuse=reuse)
    assert hit is miss and len(reuse.relabelings) == 1
    _assert_same_relabeling(miss, want, "through a reuse scope")


def test_fully_symmetric_input_keeps_the_first_orientation():
    coords = grid_coords(4, 4)
    k = laplacian_2d(4, 4)
    bt = sp.identity(16, format="csc")
    rel = canonical_relabeling(coords, k=k, bt=bt)
    first_perm, first_signs = canonical.orientation_transforms(2)[0]
    assert (rel.axis_perm, rel.axis_signs) == (first_perm, first_signs)
    _assert_same_relabeling(rel, _ref_relabeling(coords, k=k, bt=bt), "all tie")


@given(
    n=st.integers(1, 24),
    density=st.sampled_from((0.0, 0.1, 0.4)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_permute_symmetric_equals_fancy_indexing(n, density, seed):
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=density, random_state=rng.integers(2**31), format="csr")
    perm = rng.permutation(n)
    for fmt, convert in (("csr", sp.csr_matrix), ("csc", sp.csc_matrix)):
        want = convert(a[perm][:, perm])
        want.sort_indices()
        got = permute_symmetric(a, perm, format=fmt)
        assert got.format == fmt and got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# Look-alikes must not share
# ---------------------------------------------------------------------------


def _one_entry_gluing(n: int, rows) -> sp.csc_matrix:
    rows = np.asarray(rows)
    return sp.csc_matrix(
        (np.ones(rows.size), (rows, np.arange(rows.size))), shape=(n, rows.size)
    )


def test_same_lattice_and_stiffness_but_other_gluing_does_not_share():
    coords, k = grid_coords(5, 3), laplacian_2d(5, 3)
    bt_a = _one_entry_gluing(15, [0, 1, 2, 3, 4])  # bottom edge
    bt_b = _one_entry_gluing(15, [0, 5, 10, 4, 9])  # left edge + two more
    reuse = SymbolicReuse()
    rel_a = canonical_relabeling(coords, k=k, bt=bt_a, reuse=reuse)
    rel_b = canonical_relabeling(coords, k=k, bt=bt_b, reuse=reuse)
    assert rel_a is not rel_b and len(reuse.relabelings) == 2
    _assert_same_relabeling(rel_a, canonical_relabeling(coords, k=k, bt=bt_a), "bt_a")
    _assert_same_relabeling(rel_b, canonical_relabeling(coords, k=k, bt=bt_b), "bt_b")
    # Same rows glued, one more column: the column count is part of the key.
    bt_c = _one_entry_gluing(15, [0, 1, 2, 3, 4, 4])
    rel_c = canonical_relabeling(coords, k=k, bt=bt_c, reuse=reuse)
    assert rel_c.n_cols == 6 and len(reuse.relabelings) == 3


def test_other_tolerance_or_rotation_mode_does_not_share():
    coords, k = grid_coords(5, 3), laplacian_2d(5, 3)
    bt = _one_entry_gluing(15, [0, 1, 2])
    reuse = SymbolicReuse()
    base = canonical_relabeling(coords, k=k, bt=bt, reuse=reuse)
    coarse = canonical_relabeling(coords, k=k, bt=bt, tolerance=0.25, reuse=reuse)
    values = canonical_relabeling(coords, k=k, bt=bt, value_tolerance=1e-9, reuse=reuse)
    rotated = canonical_relabeling(coords, k=k, bt=bt, rotations=True, reuse=reuse)
    assert len({id(r) for r in (base, coarse, values, rotated)}) == 4
    assert coarse.tolerance == 0.25 and values.value_tolerance == 1e-9
    assert rotated.signature != base.signature
    for got, kwargs in (
        (coarse, {"tolerance": 0.25}),
        (values, {"value_tolerance": 1e-9}),
        (rotated, {"rotations": True}),
    ):
        _assert_same_relabeling(
            got, canonical_relabeling(coords, k=k, bt=bt, **kwargs), str(kwargs)
        )


def test_same_pattern_but_other_coordinates_does_not_share_an_ordering():
    a = laplacian_2d(12, 10)  # above the ND leaf size: geometry decides
    coords = grid_coords(12, 10)
    stretched = coords * np.array([1.0, 3.0])
    reuse = SymbolicReuse()
    p_coords = compute_ordering(a, "nd", coords=coords, reuse=reuse)
    p_stretched = compute_ordering(a, "nd", coords=stretched, reuse=reuse)
    p_graph = compute_ordering(a, "nd", reuse=reuse)
    p_small_leaves = compute_ordering(a, "nd", coords=coords, reuse=reuse, leaf_size=20)
    p_amd = compute_ordering(a, "amd", coords=coords, reuse=reuse)
    assert len(reuse.orderings) == 5
    assert np.array_equal(p_coords, compute_ordering(a, "nd", coords=coords))
    assert np.array_equal(p_stretched, compute_ordering(a, "nd", coords=stretched))
    assert np.array_equal(p_graph, compute_ordering(a, "nd"))
    assert np.array_equal(
        p_small_leaves, compute_ordering(a, "nd", coords=coords, leaf_size=20)
    )
    assert np.array_equal(p_amd, compute_ordering(a, "amd"))
    assert not np.array_equal(p_coords, p_stretched)
    # Another pattern on the same coordinates misses too.
    b = (a + sp.eye(a.shape[0], k=7) + sp.eye(a.shape[0], k=-7)).tocsr()
    compute_ordering(b, "nd", coords=coords, reuse=reuse)
    assert len(reuse.orderings) == 6


# ---------------------------------------------------------------------------
# Once per class, and per call
# ---------------------------------------------------------------------------


def test_symbolic_work_is_per_class_and_not_remembered_between_calls(monkeypatch):
    calls = {"search": 0, "nd": 0}
    real_search, real_nd = canonical._orientation_search, ordering.nd_ordering

    def counting_search(*args, **kwargs):
        calls["search"] += 1
        return real_search(*args, **kwargs)

    def counting_nd(*args, **kwargs):
        calls["nd"] += 1
        return real_nd(*args, **kwargs)

    monkeypatch.setattr(canonical, "_orientation_search", counting_search)
    monkeypatch.setattr(ordering, "nd_ordering", counting_nd)

    decomposition = decompose(heat_transfer_2d(32, dirichlet=()), grid=(8, 8))
    per_call = []
    for _ in range(2):
        calls.update(search=0, nd=0)
        with tracing() as tracer:
            items = items_from_decomposition(decomposition)
        per_call.append(dict(calls))
        counters = tracer.metrics.to_dict()["counters"]
        assert counters["sparse.relabel.searched"] == calls["search"]
        assert counters["sparse.relabel.reused"] == 64 - calls["search"]
        assert counters["sparse.ordering.computed"] == calls["nd"]
        assert counters["sparse.ordering.reused"] == 64 - calls["nd"]
        # Staging: far fewer expensive candidates than 8 per search.
        assert calls["search"] <= counters["sparse.relabel.candidates"] < 8 * calls["search"]
        trace = tracer.trace()
        assert len(trace.by_name("batch.items")) == 1
        assert len(trace.by_name("sparse.relabel")) == 64
        assert len(trace.by_name("sparse.factorize")) == 64
    assert len({item.relabeling.signature for item in items}) == 3
    assert 3 <= per_call[0]["search"] <= 9
    assert 1 <= per_call[0]["nd"] <= 3
    assert per_call[1] == per_call[0]


def test_feti_preprocess_shares_orderings_and_changes_no_bit():
    """``FetiSolver.preprocess`` runs without relabelings, on absolute
    coordinates: congruent subdomains still hit the reuse scope (the key is
    the canonical-frame bytes nested dissection bisects on), and ``perm``,
    ``L`` and ``F̃`` equal a member-by-member run without a scope."""
    from repro.feti.solver import FetiSolver

    decomposition = decompose(heat_transfer_2d(48, dirichlet=("left", "right")), grid=(6, 6))
    solver = FetiSolver(decomposition, approach="expl_gpu_opt")
    with tracing() as tracer:
        solver.preprocess()
    counters = tracer.metrics.to_dict()["counters"]
    assert counters["sparse.ordering.reused"] > 0
    assert counters["sparse.ordering.reused"] + counters["sparse.ordering.computed"] == 36
    for i, (sub, got) in enumerate(zip(decomposition.subdomains, solver.operator.locals)):
        want = solver.approach.preprocess_subdomain(sub, reuse=None).local_op
        _assert_same_factor(got.factor, want.factor, f"subdomain {i}")
        _assert_bit_equal(got.f, want.f, f"subdomain {i}: F")
