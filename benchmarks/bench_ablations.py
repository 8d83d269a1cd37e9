"""Ablation benchmarks for the design choices docs/architecture.md calls out.

Not paper figures — these isolate the knobs behind them:

* fill-reducing ordering (the METIS/nested-dissection dependence of §3),
* factor storage x pruning (the §4.1 recommendations),
* generality: the same kernels on elasticity subdomains (§6's claim).
"""

from __future__ import annotations

from benchmarks.conftest import run_and_report


def test_ablation_ordering(benchmark):
    res = run_and_report(benchmark, "ablation_ordering")
    # Nested dissection clearly reduces fill and the baseline assembly time.
    assert res.metrics["fill_natural_over_nd"] > 2.0
    assert res.metrics["orig_natural_over_nd"] > 1.5
    # The optimized kernels are comparatively ordering-insensitive (they
    # skip zeros wherever the ordering put them).
    assert res.metrics["opt_spread_across_orderings"] < 2.0


def test_ablation_pruning(benchmark):
    res = run_and_report(benchmark, "ablation_pruning")
    # Pruning must pay off in 3-D with the recommended dense blocks.
    assert res.metrics["prune_gain_3d"] > 1.3
    # ...and at least not hurt badly in 2-D with sparse blocks.
    assert res.metrics["prune_gain_2d"] > 0.7


def test_elasticity_generality(benchmark):
    res = run_and_report(benchmark, "elasticity")
    # The optimization wins on elasticity too (any B K^{-1} B^T SC).
    speedups = [v for k, v in res.metrics.items() if k.startswith("speedup_3d")]
    assert all(s > 1.0 for s in speedups)
