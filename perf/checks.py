"""Per-operation oracles, run after the last repetition and outside the
timed region.

An *operation* is the unit a user would call wrong or right:

* assembly workloads — one subdomain's Schur complement.  ``F_i`` must
  match the independent dense ``B_i^T K_i^+ B_i`` (``factor.solve`` on the
  dense gluing block) to a relative Frobenius error of
  :data:`SC_TOLERANCE`, be symmetric to :data:`SYMMETRY_TOLERANCE`, and
  the factor must be a generalized inverse of the subdomain's own ``K``
  (``K K^+ K v = K v`` on a random ``v``) to :data:`KERNEL_TOLERANCE`.
  At most :data:`MAX_SAMPLES` seeded-sampled subdomains per workload.
* ``block_solve`` — one right-hand-side column: it converged, and column
  0 (the problem's own load) matches ``problem.solve_direct()``.
* ``service_warm`` — one job: status ``done`` and its ``sc_digest`` equals
  ``reference_digest(payload)``.

A failed check, a non-converged column, a digest mismatch or an exception
inside a check is a failed operation, never a crash of the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SC_TOLERANCE = 1e-8
SYMMETRY_TOLERANCE = 1e-10
KERNEL_TOLERANCE = 1e-8
SOLUTION_TOLERANCE = 1e-8
MAX_SAMPLES = 8


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{label}: {problem}")

    def run(self, label: str, check) -> None:
        """Run one operation's *check* (returns a problem string or None)."""
        try:
            problem = check()
        except Exception as exc:  # noqa: BLE001 — a broken check is a failed op
            problem = f"{type(exc).__name__}: {exc}"
        self.record(label, problem)


def _relative(err: np.ndarray, ref: np.ndarray) -> float:
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(err) / scale) if scale else float(np.linalg.norm(err))


def check_subdomain(sub, item, result, rng) -> str | None:
    if result is None:
        return "no Schur complement assembled"
    f = np.asarray(result.f)
    bt = item.bt.toarray()
    reference = bt.T @ item.factor.solve(bt)
    if f.shape != reference.shape:
        return f"SC shape {f.shape} != {reference.shape}"
    sc_error = _relative(f - reference, reference)
    if not sc_error <= SC_TOLERANCE:
        return f"SC relative error {sc_error:.3e} > {SC_TOLERANCE:g}"
    symmetry = _relative(f - f.T, f)
    if not symmetry <= SYMMETRY_TOLERANCE:
        return f"SC symmetry defect {symmetry:.3e} > {SYMMETRY_TOLERANCE:g}"
    kv = sub.k @ rng.standard_normal(sub.k.shape[0])
    kernel = _relative(sub.k @ item.factor.solve(kv) - kv, kv)
    if not kernel <= KERNEL_TOLERANCE:
        return f"K K+ K v residual {kernel:.3e} > {KERNEL_TOLERANCE:g}"
    return None


def check_assembly(data: dict, seed: int) -> Tally:
    tally = Tally()
    subs = data["decomposition"].subdomains
    items, results = data["items"], data["batch"].results
    if not (len(subs) == len(items) == len(results)):
        tally.record("batch", f"{len(subs)} subdomains, {len(items)} items, "
                              f"{len(results)} results")
        return tally
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(items), size=min(MAX_SAMPLES, len(items)), replace=False)
    for i in sorted(int(i) for i in sample):
        tally.run(f"subdomain {i}",
                  lambda i=i: check_subdomain(subs[i], items[i], results[i], rng))
    return tally


def check_solve(data: dict, seed: int) -> Tally:
    tally = Tally()
    solution, problem = data["solution"], data["problem"]
    info = solution.infos[0]

    def column(j: int) -> str | None:
        if info.deflated_at[j] < 0:
            return (f"not converged after {info.iterations} iterations "
                    f"(residual {float(info.final_residuals[j]):.3e})")
        if j == 0:
            reference = problem.solve_direct()
            error = _relative(solution.u[:, 0] - reference, reference)
            if not error <= SOLUTION_TOLERANCE:
                return f"solution error {error:.3e} > {SOLUTION_TOLERANCE:g}"
        return None

    for j in range(solution.n_rhs):
        tally.run(f"rhs column {j}", lambda j=j: column(j))
    return tally


def check_service(data: dict, seed: int) -> Tally:
    from repro.store import DONE, reference_digest

    tally = Tally()
    references: dict[str, str] = {}

    def job_ok(payload: dict, job) -> str | None:
        if job.status != DONE:
            return f"status {job.status!r} ({job.error})"
        key = json.dumps(payload, sort_keys=True)
        if key not in references:
            references[key] = reference_digest(payload)
        if (job.result or {}).get("sc_digest") != references[key]:
            return "sc_digest differs from the reference run"
        return None

    for payload, job in zip(data["payloads"], data["jobs"]):
        tally.run(f"job {job.id}", lambda p=payload, j=job: job_ok(p, j))
    return tally


ORACLES = {"assembly": check_assembly, "solve": check_solve, "service": check_service}


def run_oracle(kind: str, data: dict, seed: int) -> Tally:
    try:
        return ORACLES[kind](data, seed)
    except Exception as exc:  # noqa: BLE001 — never crash the benchmark
        tally = Tally()
        tally.record(kind, f"{type(exc).__name__}: {exc}")
        return tally
