"""Population-scale block FETI solves — grouped multi-RHS PCPG.

Two claims of the block/batched solve path are reproduced and gated:

* **Launch reduction** — on a structured 6x6 decomposition (36 subdomains
  collapsing to 9 exact pattern classes) the grouped dual operator runs
  every PCPG iteration in one kernel chain per class: simulated launches
  per iteration drop by the 4x grouping ratio, gated at >= 2x.
* **Iteration parity + solution equality** — the block solve needs at
  most one iteration more than single-RHS PCPG (usually fewer: the block
  Krylov space shares information across columns), and its multiplier /
  primal panels match k independent sequential solves at <= 1e-10, across
  every 2-D mesh-zoo workload (square, jittered, lshape, strip).

Raw wall seconds are informational; the gated metrics are the
deterministic launch counters and the parity/equality flags
(``tools/check_bench.py``).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import PAPER_SCALE

RTOL, ATOL = 1e-9, 1e-10
N_RHS = 4


def _structured_case():
    from repro.dd import decompose
    from repro.fem import heat_transfer_2d

    cells, grid = (48, (8, 8)) if PAPER_SCALE else (24, (6, 6))
    problem = heat_transfer_2d(cells, dirichlet=("left", "right"))
    return decompose(problem, grid=grid)


def _zoo_cases():
    from repro.dd import decompose
    from repro.fem import heat_problem
    from repro.part import make_mesh

    cells = 16 if PAPER_SCALE else 12
    for mesh in ("jittered", "lshape", "strip"):
        problem = heat_problem(make_mesh(mesh, cells, seed=0), dirichlet=("boundary",))
        yield mesh, decompose(problem, n_subdomains=6, partitioner="rcb", seed=0)


def _solve_pair(dec, n_rhs):
    """(scalar single-RHS result, grouped block solve, sequential solve)."""
    from repro.feti import FetiSolver

    scalar = FetiSolver(dec, approach="impl_mkl", preconditioner="lumped").solve()
    block = FetiSolver(dec, approach="impl_mkl", preconditioner="lumped").solve_block(
        n_rhs=n_rhs, block=True, grouped=True, seed=0
    )
    seq = FetiSolver(dec, approach="impl_mkl", preconditioner="lumped").solve_block(
        n_rhs=n_rhs, block=False, grouped=False, seed=0
    )
    return scalar, block, seq


def _panels_match(block, seq) -> bool:
    lam_seq = np.hstack([r.lam for r in seq.infos])
    lscale = max(1.0, float(np.abs(lam_seq).max()))
    uscale = max(1.0, float(np.abs(seq.u).max()))
    return bool(
        np.allclose(block.infos[0].lam, lam_seq, rtol=RTOL, atol=ATOL * lscale)
        and np.allclose(block.u, seq.u, rtol=RTOL, atol=ATOL * uscale)
    )


def test_block_solve_launch_reduction_and_parity(benchmark):
    dec = _structured_case()
    scalar, block, seq = benchmark.pedantic(
        lambda: _solve_pair(dec, N_RHS), rounds=1, iterations=1
    )
    stats = block.stats

    # Grouped execution: one launch chain per pattern class per iteration.
    assert block.converged and scalar.info.converged and seq.converged
    assert stats.n_rhs == N_RHS
    assert stats.launches_per_iteration == 6 * stats.n_groups
    assert stats.launches_sequential_per_iteration == 6 * stats.n_subdomains
    assert stats.launches_per_iteration * 2 <= stats.launches_sequential_per_iteration
    assert stats.launch_reduction >= 2.0, (
        f"launch reduction only {stats.launch_reduction:.2f}x"
    )

    # Iteration parity with single-RHS PCPG, solutions equal to sequential.
    gap = block.iterations - scalar.info.iterations
    assert gap <= 1, f"block took {gap} more iterations than scalar PCPG"
    assert _panels_match(block, seq)

    # Mesh-zoo sweep: parity and equality on every unstructured workload.
    zoo_parity, zoo_matches, worst_gap = 1, 1, gap
    for mesh, zdec in _zoo_cases():
        zscalar, zblock, zseq = _solve_pair(zdec, 3)
        assert zblock.converged and zseq.converged, mesh
        zgap = zblock.iterations - zscalar.info.iterations
        worst_gap = max(worst_gap, zgap)
        if zgap > 1:
            zoo_parity = 0
        if not _panels_match(zblock, zseq):
            zoo_matches = 0
    assert zoo_parity, f"a mesh-zoo case exceeded the 1-iteration gap ({worst_gap})"
    assert zoo_matches, "a mesh-zoo block solve diverged from its sequential twin"

    benchmark.extra_info["n_subdomains"] = stats.n_subdomains
    benchmark.extra_info["solve_n_groups"] = stats.n_groups
    benchmark.extra_info["solve_launches_per_iteration"] = stats.launches_per_iteration
    benchmark.extra_info["solve_launches_sequential"] = (
        stats.launches_sequential_per_iteration
    )
    benchmark.extra_info["solve_launch_reduction"] = stats.launch_reduction
    benchmark.extra_info["solve_block_iterations"] = block.iterations
    benchmark.extra_info["solve_scalar_iterations"] = scalar.info.iterations
    benchmark.extra_info["solve_iteration_gap_max"] = worst_gap
    benchmark.extra_info["solve_iteration_parity"] = zoo_parity
    benchmark.extra_info["solve_solution_matches"] = zoo_matches
    benchmark.extra_info["solve_apply_s"] = stats.apply_seconds  # informational

    print()
    print("block vs scalar FETI solve (structured grid + mesh zoo)")
    print(stats.summary())
    print(
        f"iterations: block {block.iterations} vs scalar {scalar.info.iterations} "
        f"(worst zoo gap {worst_gap:+d})"
    )


def test_block_deflation(benchmark):
    """The deflation bookkeeping stays live at benchmark scale: every
    column of the block solve deflates by convergence."""
    dec = _structured_case()

    def run():
        from repro.feti import FetiSolver

        return FetiSolver(
            dec, approach="impl_mkl", preconditioner="lumped"
        ).solve_block(n_rhs=N_RHS, block=True, grouped=True, seed=0)

    plain = benchmark.pedantic(run, rounds=1, iterations=1)
    assert plain.converged
    assert np.all(plain.infos[0].deflated_at >= 0)

    benchmark.extra_info["solve_n_deflated"] = plain.stats.n_deflated
    print()
    print(f"deflated columns: {plain.stats.n_deflated}/{N_RHS}")
