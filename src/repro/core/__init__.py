"""The paper's contribution: sparsity-aware Schur-complement assembly.

Stepped-shape column permutation of ``B̃^T``, split TRSM variants (RHS /
factor splitting with pruning), split SYRK variants (input / output
splitting), and the :class:`SchurAssembler` orchestrating them on a
simulated CPU or GPU.  Every variant takes stacked ``(group, …)`` operands;
one subdomain is a stack of one.
"""

from repro.core.assembler import (
    MemoryEstimate,
    PreparedPattern,
    SchurAssembler,
    SchurAssemblyResult,
    prepare_pattern,
)
from repro.core.blocks import BLOCK_MODES, BlockSpec, by_count, by_size
from repro.core.config import (
    SYRK_VARIANTS,
    TABLE1_OPTIMA,
    TRSM_VARIANTS,
    AssemblyConfig,
    baseline_config,
    default_config,
)
from repro.core.stepped import (
    SteppedShape,
    check_zeros_above_pivots,
    column_pivots,
    is_stepped,
    row_trails,
    stepped_permutation,
)
from repro.core.syrk_split import syrk_input_split, syrk_orig, syrk_output_split
from repro.core.trsm_split import (
    FACTOR_STORAGES,
    PruningPlan,
    trsm_factor_split,
    trsm_orig,
    trsm_rhs_split,
)
from repro.core.tuning import (
    CrossoverPoint,
    SweepPoint,
    best_point,
    measure_dense_crossover,
    pick_dense_cutoff,
    sweep_block_parameter,
    tune_block_parameter,
    tune_dense_cutoff,
)

__all__ = [
    "SchurAssembler",
    "SchurAssemblyResult",
    "MemoryEstimate",
    "PreparedPattern",
    "prepare_pattern",
    "PruningPlan",
    "AssemblyConfig",
    "default_config",
    "baseline_config",
    "TABLE1_OPTIMA",
    "TRSM_VARIANTS",
    "SYRK_VARIANTS",
    "BlockSpec",
    "by_size",
    "by_count",
    "BLOCK_MODES",
    "SteppedShape",
    "column_pivots",
    "row_trails",
    "stepped_permutation",
    "is_stepped",
    "check_zeros_above_pivots",
    "trsm_orig",
    "trsm_rhs_split",
    "trsm_factor_split",
    "FACTOR_STORAGES",
    "syrk_orig",
    "syrk_input_split",
    "syrk_output_split",
    "SweepPoint",
    "sweep_block_parameter",
    "best_point",
    "tune_block_parameter",
    "CrossoverPoint",
    "measure_dense_crossover",
    "pick_dense_cutoff",
    "tune_dense_cutoff",
]
