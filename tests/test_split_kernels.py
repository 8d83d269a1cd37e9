"""Tests for the split TRSM and SYRK kernels — correctness and invariants.

The variants take stacked operands only; a single matrix is fed as the
stack of one (``x[None]`` is a view, so in-place results land in ``x``).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    by_count,
    by_size,
    check_zeros_above_pivots,
    stepped_permutation,
    syrk_input_split,
    syrk_orig,
    syrk_output_split,
    trsm_factor_split,
    trsm_orig,
    trsm_rhs_split,
)
from repro.core.blocks import BlockSpec
from repro.gpu import A100_40GB, EPYC_7763_CORE, Executor
from repro.sparse import cholesky, solve_lower
from repro.sparse.stacked import StackedCSC
from tests.conftest import random_spd


def _setup(n=70, m=25, density=0.06, seed=0):
    """Factor + stepped RHS + dense reference solution."""
    factor = cholesky(random_spd(n, density, seed), ordering="amd")
    bt = sp.random(n, m, density=0.1, random_state=seed + 1, format="csc")
    bt_rows = bt.tocsr()[factor.perm].tocsc()
    col_perm, shape = stepped_permutation(bt_rows)
    x = np.asarray(bt_rows[:, col_perm].todense())
    y_ref = solve_lower(factor.l, x, method="dense")
    return factor, shape, x, y_ref


def _ex():
    return Executor(A100_40GB)


def _stack(factor):
    return StackedCSC.from_matrices([factor.l])


# ---------------------------------------------------------------------------
# block specs
# ---------------------------------------------------------------------------


def test_blockspec_by_size():
    blocks = by_size(3).resolve(10)
    assert blocks[0][0] == 0 and blocks[-1][1] == 10
    assert sum(e - s for s, e in blocks) == 10
    assert len(blocks) == 4


def test_blockspec_by_count():
    blocks = by_count(4).resolve(10)
    assert len(blocks) == 4
    sizes = [e - s for s, e in blocks]
    assert max(sizes) - min(sizes) <= 1


def test_blockspec_edge_cases():
    assert by_size(100).resolve(10) == [(0, 10)]
    assert by_count(100).resolve(3) == [(0, 1), (1, 2), (2, 3)]
    assert by_size(5).resolve(0) == []
    with pytest.raises(ValueError):
        BlockSpec(mode="rows", value=3)
    with pytest.raises(ValueError):
        by_size(0)


def test_blockspec_describe():
    assert by_size(500).describe() == "S 500"
    assert by_count(10).describe() == "C 10"


# ---------------------------------------------------------------------------
# TRSM variants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_trsm_orig_matches_reference(storage):
    factor, shape, x, y_ref = _setup()
    ex = _ex()
    trsm_orig(ex, _stack(factor), x[None], storage=storage)
    assert np.allclose(x, y_ref, atol=1e-9)
    assert ex.elapsed > 0


@pytest.mark.parametrize("storage", ["sparse", "dense"])
@pytest.mark.parametrize("blocks", [by_size(7), by_size(100), by_count(1), by_count(5)])
def test_trsm_rhs_split_matches_reference(storage, blocks):
    factor, shape, x, y_ref = _setup()
    ex = _ex()
    trsm_rhs_split(ex, _stack(factor), x[None], shape, blocks, storage=storage)
    assert np.allclose(x, y_ref, atol=1e-9)


@pytest.mark.parametrize("storage", ["sparse", "dense"])
@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("blocks", [by_size(9), by_size(500), by_count(6)])
def test_trsm_factor_split_matches_reference(storage, prune, blocks):
    factor, shape, x, y_ref = _setup()
    ex = _ex()
    trsm_factor_split(ex, _stack(factor), x[None], shape, blocks, storage=storage, prune=prune)
    assert np.allclose(x, y_ref, atol=1e-9)


def test_trsm_preserves_zeros_above_pivots():
    factor, shape, x, _ = _setup(seed=7)
    ex = _ex()
    trsm_factor_split(ex, _stack(factor), x[None], shape, by_size(10))
    assert check_zeros_above_pivots(x, shape, tol=0.0)


def test_trsm_rhs_split_preserves_zeros():
    factor, shape, x, _ = _setup(seed=9)
    ex = _ex()
    trsm_rhs_split(ex, _stack(factor), x[None], shape, by_size(6), storage="dense")
    assert check_zeros_above_pivots(x, shape, tol=0.0)


def test_trsm_handles_empty_columns():
    """Entirely-zero RHS columns (pivot == n) must be skipped, not crash."""
    factor, shape, x, y_ref = _setup()
    import numpy as np

    from repro.core import SteppedShape

    x2 = np.concatenate([x, np.zeros((x.shape[0], 2))], axis=1)
    shape2 = SteppedShape(
        n_rows=shape.n_rows,
        pivots=np.concatenate([shape.pivots, [shape.n_rows, shape.n_rows]]),
    )
    ex = _ex()
    trsm_rhs_split(ex, _stack(factor), x2[None], shape2, by_size(5))
    assert np.allclose(x2[:, :-2], y_ref, atol=1e-9)
    assert np.all(x2[:, -2:] == 0.0)


def test_trsm_split_saves_flops_vs_orig():
    """The optimized TRSM must charge strictly fewer FLOPs than the dense
    baseline on a genuinely stepped RHS (the whole point of §3.2)."""
    factor, shape, x, _ = _setup(n=150, m=60, seed=3)
    ex_orig, ex_opt = _ex(), _ex()
    trsm_orig(ex_orig, _stack(factor), x.copy()[None], storage="dense")
    trsm_rhs_split(ex_opt, _stack(factor), x.copy()[None], shape, by_size(10), storage="dense")
    assert ex_opt.ledger.total.flops < ex_orig.ledger.total.flops


def test_trsm_validates_shapes():
    factor, shape, x, _ = _setup()
    ex = _ex()
    with pytest.raises(ValueError):
        trsm_rhs_split(ex, _stack(factor), x[None, :-1], shape, by_size(5))
    with pytest.raises(ValueError):
        trsm_orig(ex, _stack(factor), x[None], storage="csr")


# ---------------------------------------------------------------------------
# SYRK variants
# ---------------------------------------------------------------------------


def _syrk_setup(n=80, m=30, seed=1):
    factor, shape, x, y_ref = _setup(n=n, m=m, seed=seed)
    f_ref = y_ref.T @ y_ref
    return shape, y_ref, f_ref


def test_syrk_orig_matches():
    shape, y, f_ref = _syrk_setup()
    f = np.zeros_like(f_ref)
    ex = _ex()
    syrk_orig(ex, y[None], f[None])
    assert np.allclose(f, f_ref, atol=1e-9)


@pytest.mark.parametrize("blocks", [by_size(7), by_size(1000), by_count(1), by_count(9)])
def test_syrk_input_split_matches(blocks):
    shape, y, f_ref = _syrk_setup()
    f = np.ones_like(f_ref)  # must be overwritten
    ex = _ex()
    syrk_input_split(ex, y[None], f[None], shape, blocks)
    assert np.allclose(f, f_ref, atol=1e-9)


@pytest.mark.parametrize("blocks", [by_size(4), by_size(1000), by_count(1), by_count(7)])
def test_syrk_output_split_matches(blocks):
    shape, y, f_ref = _syrk_setup()
    f = np.ones_like(f_ref)
    ex = _ex()
    syrk_output_split(ex, y[None], f[None], shape, blocks)
    assert np.allclose(f, f_ref, atol=1e-9)


def test_syrk_results_symmetric():
    shape, y, _ = _syrk_setup(seed=5)
    for fn in (syrk_input_split, syrk_output_split):
        f = np.zeros((y.shape[1], y.shape[1]))
        fn(_ex(), y[None], f[None], shape, by_size(11))
        assert np.allclose(f, f.T, atol=1e-12)


def test_syrk_split_saves_flops():
    shape, y, _ = _syrk_setup(n=200, m=80, seed=2)
    ex_orig, ex_in, ex_out = _ex(), _ex(), _ex()
    f = np.zeros((1, y.shape[1], y.shape[1]))
    syrk_orig(ex_orig, y[None], f.copy())
    syrk_input_split(ex_in, y[None], f.copy(), shape, by_size(20))
    syrk_output_split(ex_out, y[None], f.copy(), shape, by_size(10))
    assert ex_in.ledger.total.flops < ex_orig.ledger.total.flops
    assert ex_out.ledger.total.flops < ex_orig.ledger.total.flops


def test_syrk_validates():
    shape, y, _ = _syrk_setup()
    with pytest.raises(ValueError):
        syrk_orig(_ex(), y[None], np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        syrk_input_split(
            _ex(), y[None, :-1], np.zeros((1,) + (y.shape[1],) * 2), shape, by_size(5)
        )


# ---------------------------------------------------------------------------
# property tests: all variants agree for random inputs and block settings
# ---------------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 50),
    m=st.integers(1, 15),
    seed=st.integers(0, 5_000),
    block=st.integers(1, 60),
    storage=st.sampled_from(["sparse", "dense"]),
    prune=st.booleans(),
)
def test_property_trsm_variants_agree(n, m, seed, block, storage, prune):
    factor = cholesky(random_spd(n, min(1.0, 5.0 / n), seed), ordering="amd")
    bt = sp.random(n, m, density=0.2, random_state=seed, format="csc")
    bt_rows = bt.tocsr()[factor.perm].tocsc()
    col_perm, shape = stepped_permutation(bt_rows)
    x0 = np.asarray(bt_rows[:, col_perm].todense())
    ref = solve_lower(factor.l, x0.copy(), method="dense")

    x1, x2 = x0.copy(), x0.copy()
    trsm_rhs_split(_ex(), _stack(factor), x1[None], shape, by_size(block), storage=storage)
    trsm_factor_split(
        _ex(), _stack(factor), x2[None], shape, by_size(block), storage=storage, prune=prune
    )
    assert np.allclose(x1, ref, atol=1e-8)
    assert np.allclose(x2, ref, atol=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(5, 50),
    m=st.integers(1, 15),
    seed=st.integers(0, 5_000),
    block=st.integers(1, 60),
)
def test_property_syrk_variants_agree(n, m, seed, block):
    rng = np.random.default_rng(seed)
    pivots = np.sort(rng.integers(0, n + 1, size=m))
    y = rng.standard_normal((n, m))
    for j, p in enumerate(pivots):
        y[:p, j] = 0.0
    from repro.core import SteppedShape

    shape = SteppedShape(n_rows=n, pivots=pivots)
    ref = y.T @ y
    f1 = np.zeros((m, m))
    f2 = np.zeros((m, m))
    syrk_input_split(_ex(), y[None], f1[None], shape, by_size(block))
    syrk_output_split(_ex(), y[None], f2[None], shape, by_size(block))
    assert np.allclose(f1, ref, atol=1e-9)
    assert np.allclose(f2, ref, atol=1e-9)
