"""FETI solver substrate: dual operator, projected block CG, Table-2
approaches, amortization analysis."""

from repro.feti.amortization import (
    ApproachTiming,
    amortization_point,
    best_approach,
    crossover_table,
)
from repro.feti.dual_approaches import (
    APPROACHES,
    DualOperatorApproach,
    SubdomainPreprocess,
    estimate_approach_timing,
    make_approach,
)
from repro.feti.block_pcpg import BlockPcpgResult, block_pcpg
from repro.feti.operator import (
    DualOperator,
    ExplicitLocalOperator,
    GroupedDualOperator,
    ImplicitLocalOperator,
    LocalDualOperator,
    build_dual_operator,
    factorize_subdomain,
)
from repro.feti.planner import (
    DEFAULT_CANDIDATES,
    Plan,
    PopulationPlan,
    plan_approach,
    plan_population,
)
from repro.feti.preconditioner import (
    DirichletPreconditioner,
    IdentityPreconditioner,
    LowRankCorrection,
    LumpedPreconditioner,
    StackedPreconditioner,
    make_preconditioner,
)
from repro.feti.projector import CoarseProblem
from repro.feti.solver import (
    BlockFetiSolution,
    FetiSolution,
    FetiSolver,
    FetiTimings,
    make_load_panel,
    solve_feti,
)
from repro.feti.timing import (
    CHOLMOD,
    MKL_PARDISO,
    FactorizationLibrary,
    explicit_apply_time,
    implicit_apply_time,
    sc_transfer_time,
)

__all__ = [
    "FetiSolver",
    "FetiSolution",
    "BlockFetiSolution",
    "FetiTimings",
    "make_load_panel",
    "solve_feti",
    "block_pcpg",
    "BlockPcpgResult",
    "CoarseProblem",
    "DualOperator",
    "GroupedDualOperator",
    "build_dual_operator",
    "LocalDualOperator",
    "ImplicitLocalOperator",
    "ExplicitLocalOperator",
    "factorize_subdomain",
    "IdentityPreconditioner",
    "LumpedPreconditioner",
    "DirichletPreconditioner",
    "StackedPreconditioner",
    "LowRankCorrection",
    "make_preconditioner",
    "Plan",
    "plan_approach",
    "PopulationPlan",
    "plan_population",
    "DEFAULT_CANDIDATES",
    "APPROACHES",
    "make_approach",
    "estimate_approach_timing",
    "DualOperatorApproach",
    "SubdomainPreprocess",
    "FactorizationLibrary",
    "MKL_PARDISO",
    "CHOLMOD",
    "implicit_apply_time",
    "explicit_apply_time",
    "sc_transfer_time",
    "ApproachTiming",
    "amortization_point",
    "best_approach",
    "crossover_table",
]
