"""Experiment drivers — one per table/figure of the paper's evaluation.

Each ``experiment_*`` function regenerates the corresponding result:
workload generation, parameter sweep, baselines, and the same rows/series
the paper plots.  Timings are simulated seconds from the device cost model
(see docs/architecture.md); the *shape* — who wins, by what factor, where
crossovers fall — is the reproduction target, not absolute silicon numbers.

``quick=True`` (the default used by the pytest benches) trims the sweeps to
sizes this box can build in minutes; ``paper_scale=True`` extends towards
the full ladders of the paper.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bench.report import ExperimentResult
from repro.bench.workloads import KernelWorkload, make_workload, size_ladder
from repro.core import (
    AssemblyConfig,
    SchurAssembler,
    TABLE1_OPTIMA,
    baseline_config,
    by_count,
    by_size,
    default_config,
)
from repro.feti import (
    APPROACHES,
    ApproachTiming,
    amortization_point,
    crossover_table,
    estimate_approach_timing,
)
from repro.feti.timing import CHOLMOD, MKL_PARDISO
from repro.gpu import A100_40GB, EPYC_7763_CORE, KernelCost, csx_bytes
from repro.runtime import SubdomainWork, run_preprocessing_pipeline
from repro.util import Table, require


def _spec(device: str):
    return A100_40GB if device == "gpu" else EPYC_7763_CORE


def _assembler(config: AssemblyConfig, device: str) -> SchurAssembler:
    if device == "gpu":
        return SchurAssembler(config=config, spec=A100_40GB)
    return SchurAssembler.for_cpu(config=config)


def _stage_estimate(wl: KernelWorkload, config: AssemblyConfig, device: str) -> dict:
    return _assembler(config, device).estimate(wl.factor, wl.bt)


def _baseline_for(device: str, dim: int) -> AssemblyConfig:
    # The [9] baseline: whole-factor TRSM through the (cu)SPARSE routine.
    return baseline_config("sparse")


# ---------------------------------------------------------------------------
# Table 1 — optimal splitting of the matrices
# ---------------------------------------------------------------------------

def experiment_table1(
    quick: bool = True, paper_scale: bool = False
) -> ExperimentResult:
    """Sweep block size/count per algorithm x device x dim; report optima."""
    res = ExperimentResult("table1", "Optimal splitting of the matrices")
    rep_dofs = {2: 16562 if quick else 66248, 3: 4913 if quick else 35937}
    size_grid = [50, 100, 200, 500, 1000, 2000]
    count_grid = [1, 5, 10, 50, 100]

    algorithms = {
        "TRSM, RHS splitting": ("rhs_split", None, "trsm"),
        "TRSM, factor splitting": ("factor_split", None, "trsm"),
        "SYRK, input splitting": (None, "input_split", "syrk"),
        "SYRK, output splitting": (None, "output_split", "syrk"),
    }
    table = Table(
        ["algorithm", "CPU 2D", "CPU 3D", "GPU 2D", "GPU 3D", "paper CPU2D/CPU3D/GPU2D/GPU3D"],
        title="Table 1: best split setting per algorithm (S = size, C = count)",
    )
    paper_rows = {
        "TRSM, RHS splitting": "S 100 / S 100 / C 1 / S 1000",
        "TRSM, factor splitting": "S 200 / S 200 / S 1000 / S 500",
        "SYRK, input splitting": "S 200 / C 50 / S 2000 / S 1000",
        "SYRK, output splitting": "S 200 / C 10 / S 200 / S 1000",
    }
    for algo, (trsm_v, syrk_v, stage) in algorithms.items():
        row = [algo]
        for device in ("cpu", "gpu"):
            for dim in (2, 3):
                wl = make_workload(dim, rep_dofs[dim])
                base = default_config(device, dim)
                best_spec, best_t = None, math.inf
                for mode, grid in (("size", size_grid), ("count", count_grid)):
                    for v in grid:
                        spec = by_size(v) if mode == "size" else by_count(v)
                        overrides = {}
                        if trsm_v:
                            overrides = {"trsm_variant": trsm_v, "trsm_blocks": spec}
                            if trsm_v == "rhs_split":
                                overrides["prune"] = False
                        else:
                            overrides = {"syrk_variant": syrk_v, "syrk_blocks": spec}
                        cfg = base.with_overrides(**overrides)
                        t = _stage_estimate(wl, cfg, device)[stage]
                        if t < best_t:
                            best_t, best_spec = t, spec
                row.append(best_spec.describe())
        # reorder to CPU2D CPU3D GPU2D GPU3D (loop order already matches)
        table.add_row(row + [paper_rows[algo]])
    res.add_table("table1", table)
    res.add_note(
        "Optima depend on the simulated roofline; agreement with the paper "
        "is expected in *mode* (block size S preferred on large inputs) and "
        "order of magnitude of the best value."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 5 — SC assembly time vs partition parameter
# ---------------------------------------------------------------------------

def experiment_fig5(quick: bool = True, paper_scale: bool = False) -> ExperimentResult:
    """Fixed block count vs fixed block size sweeps (3-D, GPU, factor split)."""
    res = ExperimentResult(
        "fig05", "SC assembly time vs partition parameter (3D, GPU, factor splitting)"
    )
    sizes = {"3k": 2744, "35k": 9261 if quick else 35937}
    params = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 100000]
    series: dict[str, list[float]] = {}
    for label, dofs in sizes.items():
        wl = make_workload(3, dofs)
        base = default_config("gpu", 3)
        for mode in ("count", "size"):
            key = f"{label}, {mode}"
            times = []
            for v in params:
                spec = by_size(v) if mode == "size" else by_count(v)
                cfg = base.with_overrides(trsm_blocks=spec, syrk_blocks=spec)
                times.append(_stage_estimate(wl, cfg, "gpu")["total"] * 1e3)
            series[key] = times
    res.add_series("fig05 (time per subdomain, ms)", "param", params, series)
    for label in sizes:
        times = series[f"{label}, size"]
        best = params[int(np.argmin(times))]
        res.metrics[f"best_block_size_{label}"] = best
        res.metrics[f"u_shape_penalty_small_{label}"] = times[0] / min(times)
    res.add_note(
        "Paper: optimum block size ~500 independent of subdomain size; "
        "block-count optimum grows with size; block size 1 is heavily "
        "launch-overhead bound (U-shape)."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 6 — splitting variants of the optimized kernels
# ---------------------------------------------------------------------------

def experiment_fig6(quick: bool = True, paper_scale: bool = False) -> ExperimentResult:
    """TRSM (rhs/factor/factor+prune) and SYRK (input/output) variant sweep."""
    res = ExperimentResult("fig06", "TRSM and SYRK splitting variants")
    for dim in (2, 3):
        ladder = size_ladder(dim, paper_scale, cap=None if paper_scale else (33282 if dim == 2 else 17576))
        trsm_series: dict[str, list[float]] = {}
        syrk_series: dict[str, list[float]] = {}
        labels = []
        for dofs in ladder:
            wl = make_workload(dim, dofs)
            labels.append(wl.n_dofs)
            for device in ("cpu", "gpu"):
                base = default_config(device, dim)
                variants = {
                    f"{device} rhs": base.with_overrides(
                        trsm_variant="rhs_split",
                        trsm_blocks=TABLE1_OPTIMA[("trsm_rhs", device, dim)],
                        prune=False,
                    ),
                    f"{device} f": base.with_overrides(prune=False),
                    f"{device} f+prune": base.with_overrides(prune=True),
                }
                for name, cfg in variants.items():
                    trsm_series.setdefault(name, []).append(
                        _stage_estimate(wl, cfg, device)["trsm"] * 1e3
                    )
                for sv, key in (("input_split", "syrk_input"), ("output_split", "syrk_output")):
                    cfg = base.with_overrides(
                        syrk_variant=sv, syrk_blocks=TABLE1_OPTIMA[(key, device, dim)]
                    )
                    syrk_series.setdefault(f"{device} {sv.split('_')[0]}", []).append(
                        _stage_estimate(wl, cfg, device)["syrk"] * 1e3
                    )
        res.add_series(f"fig06 TRSM {dim}D (ms)", "dofs", labels, trsm_series)
        res.add_series(f"fig06 SYRK {dim}D (ms)", "dofs", labels, syrk_series)
        last = -1
        res.metrics[f"trsm_{dim}d_prune_gain_at_max"] = (
            trsm_series["gpu f"][last] / trsm_series["gpu f+prune"][last]
        )
    res.add_note(
        "Paper §4.2: factor splitting + pruning optimal for TRSM at large "
        "sizes; SYRK variants nearly tied with input splitting preferred."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 7 — pure TRSM / SYRK kernel times and speedups
# ---------------------------------------------------------------------------

def _library_forward_substitution_time(wl: KernelWorkload, lib: str) -> float:
    """PARDISO/CHOLMOD forward substitution with the full RHS (no sparsity)."""
    nnz, n, m = wl.factor.nnz, wl.n_dofs, wl.n_multipliers
    eff = {"pardiso": 1.25, "cholmod": 1.0}[lib]  # PARDISO's TRSV is leaner
    cost = KernelCost(
        flops=2.0 * nnz * m,
        bytes_moved=csx_bytes(nnz, n) + 2.0 * n * m * 8.0,
        launches=1,
        char_dim=16.0 * eff,
        sparse=True,
    )
    return cost.time_on(EPYC_7763_CORE)


def experiment_fig7(quick: bool = True, paper_scale: bool = False) -> ExperimentResult:
    res = ExperimentResult("fig07", "Pure TRSM and SYRK kernel times + speedup")
    for dim in (2, 3):
        ladder = size_ladder(dim, paper_scale, cap=None if paper_scale else (66248 if dim == 2 else 35937))
        labels: list[int] = []
        trsm: dict[str, list[float]] = {}
        syrk: dict[str, list[float]] = {}
        speedups: dict[str, list[float]] = {}
        for dofs in ladder:
            wl = make_workload(dim, dofs)
            labels.append(wl.n_dofs)
            values: dict[str, float] = {}
            for device in ("cpu", "gpu"):
                est_orig = _stage_estimate(wl, _baseline_for(device, dim), device)
                est_opt = _stage_estimate(wl, default_config(device, dim), device)
                values[f"{device} trsm orig"] = est_orig["trsm"]
                values[f"{device} trsm opt"] = est_opt["trsm"]
                values[f"{device} syrk orig"] = est_orig["syrk"]
                values[f"{device} syrk opt"] = est_opt["syrk"]
            values["cholmod trsv"] = _library_forward_substitution_time(wl, "cholmod")
            values["pardiso trsv"] = _library_forward_substitution_time(wl, "pardiso")
            for key in (
                "cpu trsm orig", "cpu trsm opt", "gpu trsm orig", "gpu trsm opt",
                "cholmod trsv", "pardiso trsv",
            ):
                trsm.setdefault(key, []).append(values[key] * 1e3)
            for key in ("cpu syrk orig", "cpu syrk opt", "gpu syrk orig", "gpu syrk opt"):
                syrk.setdefault(key, []).append(values[key] * 1e3)
            for name, num, den in (
                ("cpu trsm orig/opt", "cpu trsm orig", "cpu trsm opt"),
                ("cpu trsm cholmod/opt", "cholmod trsv", "cpu trsm opt"),
                ("cpu trsm pardiso/opt", "pardiso trsv", "cpu trsm opt"),
                ("cpu syrk orig/opt", "cpu syrk orig", "cpu syrk opt"),
                ("gpu trsm orig/opt", "gpu trsm orig", "gpu trsm opt"),
                ("gpu syrk orig/opt", "gpu syrk orig", "gpu syrk opt"),
            ):
                speedups.setdefault(name, []).append(values[num] / values[den])
        res.add_series(f"fig07 TRSM {dim}D (ms)", "dofs", labels, trsm)
        res.add_series(f"fig07 SYRK {dim}D (ms)", "dofs", labels, syrk)
        res.add_series(f"fig07 speedup {dim}D", "dofs", labels, speedups)
        res.metrics[f"gpu_trsm_speedup_max_{dim}d"] = max(speedups["gpu trsm orig/opt"])
        res.metrics[f"gpu_syrk_speedup_max_{dim}d"] = max(speedups["gpu syrk orig/opt"])
    res.add_note(
        "Paper: speedups grow with subdomain size; theoretical dense limit "
        "~3 (pyramid in prism); 3-D TRSM gains more than 2-D."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 8 — whole explicit SC assembly, sep vs mix
# ---------------------------------------------------------------------------

def experiment_fig8(
    quick: bool = True,
    paper_scale: bool = False,
    n_subdomains: int = 64,
    n_threads: int = 16,
    n_streams: int = 16,
) -> ExperimentResult:
    res = ExperimentResult("fig08", "Whole SC assembly: sep vs mix, orig vs opt")
    for dim in (2, 3):
        ladder = size_ladder(dim, paper_scale, cap=None if paper_scale else (33282 if dim == 2 else 17576))
        labels: list[int] = []
        times: dict[str, list[float]] = {}
        speedup: dict[str, list[float]] = {}
        for dofs in ladder:
            wl = make_workload(dim, dofs)
            labels.append(wl.n_dofs)
            fact = CHOLMOD.factorization_time(wl.factor)
            per: dict[str, float] = {}
            for device in ("cpu", "gpu"):
                for variant, cfg in (
                    ("orig", _baseline_for(device, dim)),
                    ("opt", default_config(device, dim)),
                ):
                    asm = _stage_estimate(wl, cfg, device)["total"]
                    for mode in ("sep", "mix"):
                        work = [
                            SubdomainWork(factorization=fact, assembly=asm)
                            for _ in range(n_subdomains)
                        ]
                        pipe = run_preprocessing_pipeline(
                            work,
                            mode=mode,
                            n_threads=n_threads,
                            n_streams=n_streams,
                            assembly_on_gpu=(device == "gpu"),
                        )
                        if mode == "sep" and device == "gpu":
                            # sep measures the GPU section alone (paper).
                            per_sub = pipe.assembly_makespan / n_subdomains
                        else:
                            per_sub = pipe.makespan / n_subdomains
                        per[f"{device} {mode} {variant}"] = per_sub
            for key, val in per.items():
                times.setdefault(key, []).append(val * 1e3)
            for device in ("cpu", "gpu"):
                for mode in ("sep", "mix"):
                    speedup.setdefault(f"{device} {mode} orig/opt", []).append(
                        per[f"{device} {mode} orig"] / per[f"{device} {mode} opt"]
                    )
        res.add_series(f"fig08 time {dim}D (ms/subdomain)", "dofs", labels, times)
        res.add_series(f"fig08 speedup {dim}D", "dofs", labels, speedup)
        res.metrics[f"gpu_sep_speedup_max_{dim}d"] = max(speedup["gpu sep orig/opt"])
        res.metrics[f"gpu_mix_speedup_max_{dim}d"] = max(speedup["gpu mix orig/opt"])
    res.add_note(
        "Paper: GPU-section (sep) speedup up to 5.1, whole assembly (mix) "
        "up to 3.3 in 3D, above 2 in 2D; CPU sep == mix."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 9 — preprocessing time of all dual-operator approaches
# ---------------------------------------------------------------------------

def experiment_fig9(quick: bool = True, paper_scale: bool = False) -> ExperimentResult:
    res = ExperimentResult("fig09", "Preprocessing time per dual-operator approach")
    order = [
        "expl_cholmod", "expl_mkl", "expl_cpu_opt", "expl_gpu_opt",
        "expl_cuda", "impl_cholmod", "impl_mkl", "expl_hybrid",
    ]
    for dim in (2, 3):
        ladder = size_ladder(dim, paper_scale, cap=None if paper_scale else (33282 if dim == 2 else 17576))
        labels: list[int] = []
        series: dict[str, list[float]] = {name: [] for name in order}
        for dofs in ladder:
            wl = make_workload(dim, dofs)
            labels.append(wl.n_dofs)
            for name in order:
                t = estimate_approach_timing(name, wl.factor, wl.bt, dim)
                series[name].append(t.preprocessing * 1e3)
        res.add_series(f"fig09 preprocessing {dim}D (ms/subdomain)", "dofs", labels, series)
        last = -1
        res.metrics[f"gpu_opt_vs_expl_mkl_{dim}d"] = (
            series["expl_mkl"][last] / series["expl_gpu_opt"][last]
        )
        res.metrics[f"gpu_opt_vs_impl_cholmod_{dim}d"] = (
            series["expl_gpu_opt"][last] / series["impl_cholmod"][last]
        )
    res.add_note(
        "Paper: implicit approaches fastest (factorization only); expl_mkl "
        "wins among explicit in 2D; expl_gpu_opt fastest explicit in 3D "
        "(up to 9.8x over expl_mkl), only ~2.3x slower than implicit."
    )
    return res


# ---------------------------------------------------------------------------
# Figure 10 — amortization of the dual operator
# ---------------------------------------------------------------------------

def experiment_fig10(quick: bool = True, paper_scale: bool = False) -> ExperimentResult:
    res = ExperimentResult("fig10", "Total dual-operator time vs iterations")
    iteration_grid = [1, 3, 10, 30, 100, 300, 1000, 3000, 10000]
    approaches_by_dim = {
        2: ["impl_mkl", "expl_mkl", "expl_hybrid"],
        3: ["impl_mkl", "impl_cholmod", "expl_hybrid", "expl_gpu_opt"],
    }
    for dim in (2, 3):
        ladder = size_ladder(dim, paper_scale, cap=None if paper_scale else (33282 if dim == 2 else 17576))
        amort_rows = Table(
            ["dofs", "m", "amort impl_mkl->expl_gpu_opt", "best@10", "best@1000"],
            title=f"fig10 amortization ({dim}D)",
        )
        for dofs in ladder:
            wl = make_workload(dim, dofs)
            timings = {
                name: estimate_approach_timing(name, wl.factor, wl.bt, dim)
                for name in set(approaches_by_dim[dim]) | {"expl_gpu_opt", "impl_mkl"}
            }
            ap = amortization_point(timings["impl_mkl"], timings["expl_gpu_opt"])
            cross = crossover_table(
                [timings[n] for n in approaches_by_dim[dim]], iteration_grid
            )
            best10 = next(name for it, name, _ in cross if it == 10)
            best1000 = next(name for it, name, _ in cross if it == 1000)
            amort_rows.add_row(
                [wl.n_dofs, wl.n_multipliers, ap if math.isfinite(ap) else "inf", best10, best1000]
            )
            if dofs == ladder[-1]:
                series = {
                    name: [timings[name].total(it) * 1e3 for it in iteration_grid]
                    for name in approaches_by_dim[dim]
                }
                res.add_series(
                    f"fig10 step time {dim}D dofs={wl.n_dofs} (ms/subdomain)",
                    "iterations",
                    iteration_grid,
                    series,
                )
        res.add_table(f"fig10 amortization table ({dim}D)", amort_rows)
        if dim == 3:
            wl = make_workload(3, ladder[-1])
            timings = {
                name: estimate_approach_timing(name, wl.factor, wl.bt, 3)
                for name in ("impl_mkl", "expl_gpu_opt")
            }
            res.metrics["amortization_3d_largest"] = amortization_point(
                timings["impl_mkl"], timings["expl_gpu_opt"]
            )
    res.add_note(
        "Paper: amortization points of expl_gpu_opt sit around 10 "
        "iterations across 3-D subdomain sizes 1k-70k."
    )
    return res


# ---------------------------------------------------------------------------
# Ablations — design choices docs/architecture.md calls out (not paper figures)
# ---------------------------------------------------------------------------

def experiment_ablation_ordering(
    quick: bool = True, paper_scale: bool = False
) -> ExperimentResult:
    """Fill-reducing ordering vs stepped shape vs assembly time.

    §3 of the paper: the stepped shape "can be easily achieved if the column
    pivots are approximately uniformly distributed across the rows (which
    holds, e.g., for permutation provided by Metis)".  This ablation swaps
    the ordering under the same subdomain and measures (a) factor fill,
    (b) the stepped density of the permuted RHS (lower = more skippable
    zeros), and (c) the optimized GPU assembly time.
    """
    import scipy.sparse as sp

    from repro.core.stepped import stepped_permutation
    from repro.sparse import cholesky

    res = ExperimentResult(
        "ablation_ordering", "Fill-reducing ordering vs stepped shape"
    )
    dofs = 4913 if quick else 17576
    wl = make_workload(3, dofs)
    table = Table(
        ["ordering", "nnz(L)", "fact flops", "stepped density", "opt time [ms]", "orig time [ms]"],
        title=f"ordering ablation (3D, {wl.n_dofs} DOFs, simulated GPU)",
    )
    opt_times, orig_times, fill = {}, {}, {}
    for ordering in ("nd", "amd", "rcm", "natural"):
        factor = cholesky(wl.k_reg, ordering=ordering, coords=wl.coords)
        bt_rows = wl.bt.tocsr()[factor.perm].tocsc()
        _, shape = stepped_permutation(bt_rows)
        t_opt = SchurAssembler(
            config=default_config("gpu", 3), spec=A100_40GB
        ).estimate(factor, wl.bt)["total"]
        t_orig = SchurAssembler(
            config=_baseline_for("gpu", 3), spec=A100_40GB
        ).estimate(factor, wl.bt)["total"]
        opt_times[ordering] = t_opt
        orig_times[ordering] = t_orig
        fill[ordering] = factor.nnz
        table.add_row(
            [ordering, factor.nnz, factor.flops, shape.density(), t_opt * 1e3, t_orig * 1e3]
        )
    res.add_table("ordering ablation", table)
    # ND's win shows in the fill (and hence factorization + baseline TRSM);
    # the optimized pipeline is much less ordering-sensitive — itself a
    # finding: the split kernels tolerate the ordering as long as pivots
    # stay spread (structured grids spread them even in natural order).
    res.metrics["fill_natural_over_nd"] = fill["natural"] / fill["nd"]
    res.metrics["orig_natural_over_nd"] = orig_times["natural"] / orig_times["nd"]
    res.metrics["opt_spread_across_orderings"] = max(opt_times.values()) / min(
        opt_times.values()
    )
    res.add_note(
        "Nested dissection (the METIS stand-in) minimises fill; the "
        "optimized kernels are comparatively ordering-insensitive because "
        "they skip the zero regions whichever ordering created them."
    )
    return res


def experiment_ablation_pruning(
    quick: bool = True, paper_scale: bool = False
) -> ExperimentResult:
    """Factor-split TRSM: storage (sparse/dense) x pruning on/off (§4.1)."""
    res = ExperimentResult(
        "ablation_pruning", "Factor storage x pruning of the factor-split TRSM"
    )
    for dim, dofs in ((2, 16562 if quick else 66248), (3, 4913 if quick else 35937)):
        wl = make_workload(dim, dofs)
        base = default_config("gpu", dim)
        table = Table(
            ["storage", "prune", "trsm [ms]", "total [ms]"],
            title=f"{dim}D, {wl.n_dofs} DOFs (simulated GPU)",
        )
        values = {}
        for storage in ("sparse", "dense"):
            for prune in (False, True):
                cfg = base.with_overrides(factor_storage=storage, prune=prune)
                est = _stage_estimate(wl, cfg, "gpu")
                values[(storage, prune)] = est["trsm"]
                table.add_row([storage, prune, est["trsm"] * 1e3, est["total"] * 1e3])
        res.add_table(f"pruning ablation {dim}D", table)
        best_storage = "sparse" if dim == 2 else "dense"
        res.metrics[f"prune_gain_{dim}d"] = (
            values[(best_storage, False)] / values[(best_storage, True)]
        )
    res.add_note(
        "Paper §4.1: sparse blocks in 2D, dense in 3D; pruning compensates "
        "small-block degradation and always helps large 3-D subdomains."
    )
    return res


def experiment_elasticity(quick: bool = True, paper_scale: bool = False) -> ExperimentResult:
    """Generality check: the same machinery on elasticity subdomains.

    The paper claims the approach carries over to any SC of the form
    ``B K^{-1} B^T`` (§6).  Elasticity has denser factors, more multipliers
    per node and 3/6-dimensional kernels; the optimization should still win.
    """
    from repro.bench.workloads import make_elasticity_workload

    res = ExperimentResult("elasticity", "Sparsity-aware assembly on elasticity")
    for dim, sizes in ((2, (1152, 4232)), (3, (1331, 4913))):
        table = Table(
            ["dofs", "m", "orig [ms]", "opt [ms]", "speedup"],
            title=f"{dim}D elasticity (simulated GPU)",
        )
        for dofs in sizes:
            wl = make_elasticity_workload(dim, dofs)
            t_orig = _stage_estimate(wl, _baseline_for("gpu", dim), "gpu")["total"]
            t_opt = _stage_estimate(wl, default_config("gpu", dim), "gpu")["total"]
            table.add_row(
                [wl.n_dofs, wl.n_multipliers, t_orig * 1e3, t_opt * 1e3, t_orig / t_opt]
            )
            res.metrics[f"speedup_{dim}d_{wl.n_dofs}"] = t_orig / t_opt
        res.add_table(f"elasticity {dim}D", table)
    res.add_note("Same kernels, no elasticity-specific code paths.")
    return res


EXPERIMENTS = {
    "table1": experiment_table1,
    "fig05": experiment_fig5,
    "fig06": experiment_fig6,
    "fig07": experiment_fig7,
    "fig08": experiment_fig8,
    "fig09": experiment_fig9,
    "fig10": experiment_fig10,
    "ablation_ordering": experiment_ablation_ordering,
    "ablation_pruning": experiment_ablation_pruning,
    "elasticity": experiment_elasticity,
}


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run one experiment driver by id (``table1``, ``fig05`` .. ``fig10``)."""
    require(name in EXPERIMENTS, f"unknown experiment {name!r}; know {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](**kwargs)


__all__ = [
    "experiment_table1",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_fig9",
    "experiment_fig10",
    "experiment_ablation_ordering",
    "experiment_ablation_pruning",
    "experiment_elasticity",
    "EXPERIMENTS",
    "run_experiment",
]
