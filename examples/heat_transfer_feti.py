#!/usr/bin/env python
"""End-to-end FETI solve of a 2-D heat-transfer problem.

Mirrors the paper's workflow: assemble the global problem, tear it into
subdomains, preprocess the dual operator with one of the Table-2 approaches
(default: the paper's ``expl_gpu_opt``), solve the dual problem with PCPG,
recover the temperature field, and compare against a direct solve.

Run:  python examples/heat_transfer_feti.py [approach]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.dd import decompose
from repro.fem import heat_transfer_2d
from repro.feti import APPROACHES, FetiSolver


def main(approach: str = "expl_gpu_opt") -> None:
    if approach not in APPROACHES:
        raise SystemExit(f"unknown approach {approach!r}; pick one of {sorted(APPROACHES)}")

    # Unit square, 32x32 cells, Dirichlet on the left face, unit heat source.
    problem = heat_transfer_2d(32, dirichlet=("left",))
    decomposition = decompose(problem, grid=(4, 4))
    n_float = sum(s.floating for s in decomposition.subdomains)
    print(
        f"problem: {problem.n_dofs} DOFs -> {decomposition.n_subdomains} subdomains "
        f"({n_float} floating), {decomposition.n_multipliers} multipliers"
    )

    solver = FetiSolver(decomposition, approach=approach, tol=1e-10)
    timings = solver.preprocess()
    solution = solver.solve()

    print(f"\napproach: {approach}")
    print(f"PCPG iterations: {solution.iterations} (converged={solution.info.converged})")
    print(f"final projected residual: {solution.info.final_residuals[0]:.3e}")

    u_direct = problem.solve_direct()
    err = np.abs(solution.u - u_direct).max()
    print(f"max |u_feti - u_direct| = {err:.3e}")
    assert err < 1e-7

    print("\nsimulated timings (totals over subdomains):")
    print(f"  factorization: {sum(timings.factorization) * 1e3:9.3f} ms")
    print(f"  SC assembly:   {sum(timings.assembly) * 1e3:9.3f} ms")
    print(f"  transfers:     {sum(timings.transfer) * 1e3:9.3f} ms")
    print(f"  apply/iter:    {timings.apply_total_per_iteration * 1e3:9.3f} ms")
    total = timings.preprocessing_total + solution.iterations * timings.apply_total_per_iteration
    print(f"  dual operator total ({solution.iterations} iterations): {total * 1e3:9.3f} ms")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "expl_gpu_opt")
