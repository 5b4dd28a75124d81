"""Level-wise toolkit for linear stationary fuzzy difference inclusions.

Fuzzy quantities are finite stacks of nested alpha-cut intervals; the
induced interval dynamics are analyzed with sufficient stability
criteria, and for non-negative systems the exact per-level solution
envelope is computed, with Monte Carlo oracles for validation.
"""

from .fuzzy_num import (
    FuzzyNumber,
    FuzzyVector,
    StackingViolation,
    Tfn,
    as_fuzzy,
    fn_add,
    fn_mul_approx,
    fn_scale,
    tfn_alpha_cut,
    validate_nested,
)
from .metrics import (
    d_fuzzy_vec,
    d_levelwise,
    d_membership,
)
from .interval_linalg import (
    IntervalMatrix,
    VertexBudgetError,
    mid_rad,
    sample_matrix,
    vertex_count,
    vertex_matrices,
    vertex_stack,
)
from .stability import (
    EigenBox,
    StabilityStatus,
    StabilityVerdict,
    analyze,
    condeig_check,
    eigen_box_bounds,
    eigen_box_rayleigh,
    gershgorin_nonneg_test,
    gershgorin_nonpos_test,
    marginal_test,
    member_radius_scan,
    sampled_falsifier,
    spectral_radii,
    spectral_radius,
)
from .fdi_sim import (
    FuzzySystem,
    SignPreconditionError,
    assemble_fuzzy_attainable,
    envelope_endpoints,
    level_matrix,
    level_state,
    mc_trajectories,
    transition_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "EigenBox",
    "FuzzyNumber",
    "FuzzySystem",
    "FuzzyVector",
    "IntervalMatrix",
    "SignPreconditionError",
    "StabilityStatus",
    "StabilityVerdict",
    "StackingViolation",
    "Tfn",
    "VertexBudgetError",
    "analyze",
    "as_fuzzy",
    "assemble_fuzzy_attainable",
    "condeig_check",
    "d_fuzzy_vec",
    "d_levelwise",
    "d_membership",
    "eigen_box_bounds",
    "eigen_box_rayleigh",
    "envelope_endpoints",
    "fn_add",
    "fn_mul_approx",
    "fn_scale",
    "gershgorin_nonneg_test",
    "gershgorin_nonpos_test",
    "level_matrix",
    "level_state",
    "marginal_test",
    "mc_trajectories",
    "member_radius_scan",
    "mid_rad",
    "sample_matrix",
    "sampled_falsifier",
    "spectral_radii",
    "spectral_radius",
    "tfn_alpha_cut",
    "transition_envelope",
    "validate_nested",
    "vertex_count",
    "vertex_matrices",
    "vertex_stack",
]
