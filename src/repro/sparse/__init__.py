"""Sparse direct-solver substrate: orderings, symbolic/numeric Cholesky,
triangular solves, augmented Schur complement, regularization, null spaces.

This package is the from-scratch stand-in for MKL PARDISO / CHOLMOD / METIS
that the paper's FETI implementation builds on.
"""

from repro.sparse.canonical import (
    DEFAULT_NEAR_SHAPE_TOLERANCE,
    DEFAULT_NEAR_SIZE_TOLERANCE,
    DEFAULT_TOLERANCE,
    DEFAULT_VALUE_TOLERANCE,
    INERTIA_GAP_TOLERANCE,
    CanonicalFrame,
    CanonicalRelabeling,
    canonical_coords,
    canonical_frame,
    canonical_relabeling,
    canonical_signature,
    frame_digest,
    inertia_alignment,
    near_signature,
    orientation_transforms,
    quantize_pattern,
    rotation_coords,
    rotation_signature,
)
from repro.sparse.cholesky import (
    CholeskyFactor,
    NotPositiveDefiniteError,
    cholesky,
    conform_to_symbolic,
)
from repro.sparse.etree import elimination_tree, postorder, row_pattern
from repro.sparse.nullspace import (
    constant_nullspace,
    nullspace_dense,
    spnorm_inf,
    verify_nullspace,
)
from repro.sparse.ordering import (
    ORDERING_METHODS,
    amd_ordering,
    compute_ordering,
    natural_ordering,
    nd_ordering,
    rcm_ordering,
)
from repro.sparse.regularization import (
    choose_fixing_dofs,
    choose_fixing_dofs_by_kernel,
    choose_fixing_nodes,
    regularize,
)
from repro.sparse.schur_augmented import AugmentedSchurResult, schur_augmented
from repro.sparse.schur_estimate import (
    AugmentedCostEstimate,
    estimate_augmented_cost,
    factor_etree,
)
from repro.sparse.symbolic import (
    SymbolicFactor,
    factor_pattern_csc,
    symbolic_factorize,
    symbolic_from_factor,
)
from repro.sparse.stacked import StackedCSC, stack_permuted_dense
from repro.sparse.triangular import (
    DEFAULT_DENSE_CUTOFF,
    TriangularSolver,
    cached_triangular_solver,
    solve_lower,
    solve_upper,
    spsolve_lower_sparse,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_VALUE_TOLERANCE",
    "DEFAULT_NEAR_SIZE_TOLERANCE",
    "DEFAULT_NEAR_SHAPE_TOLERANCE",
    "INERTIA_GAP_TOLERANCE",
    "CanonicalFrame",
    "CanonicalRelabeling",
    "canonical_frame",
    "canonical_coords",
    "canonical_relabeling",
    "canonical_signature",
    "frame_digest",
    "inertia_alignment",
    "near_signature",
    "orientation_transforms",
    "quantize_pattern",
    "rotation_coords",
    "rotation_signature",
    "conform_to_symbolic",
    "cholesky",
    "CholeskyFactor",
    "NotPositiveDefiniteError",
    "elimination_tree",
    "postorder",
    "row_pattern",
    "symbolic_factorize",
    "symbolic_from_factor",
    "SymbolicFactor",
    "factor_pattern_csc",
    "compute_ordering",
    "natural_ordering",
    "rcm_ordering",
    "amd_ordering",
    "nd_ordering",
    "ORDERING_METHODS",
    "solve_lower",
    "solve_upper",
    "TriangularSolver",
    "cached_triangular_solver",
    "DEFAULT_DENSE_CUTOFF",
    "spsolve_lower_sparse",
    "StackedCSC",
    "stack_permuted_dense",
    "schur_augmented",
    "AugmentedSchurResult",
    "estimate_augmented_cost",
    "AugmentedCostEstimate",
    "factor_etree",
    "choose_fixing_dofs",
    "choose_fixing_nodes",
    "choose_fixing_dofs_by_kernel",
    "regularize",
    "constant_nullspace",
    "nullspace_dense",
    "verify_nullspace",
    "spnorm_inf",
]
