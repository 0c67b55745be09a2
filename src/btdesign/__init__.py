"""Locally D-optimal designs for Bradley-Terry paired comparisons.

The package computes, classifies, and certifies optimal comparison designs:
closed-form designs and optimality regions for four alternatives, saturated
path-design regions for any number of alternatives, and an iterative solver
that doubles as an independent verification oracle.
"""

from .core import (
    BtDesignError,
    Design,
    InfoMatrix,
    Pair,
    Parameters,
    SingularMatrixError,
    all_pairs,
    information_matrix,
    log_det,
    regression_vector,
)
from .four_alt import (
    ClassificationError,
    ConsistencyError,
    RegionKind,
    RegionLabel,
    classify_m4,
    claw_infeasibility_sample,
    claw_infeasibility_scan,
    disjoint_four_point_residuals,
    five_point_weights,
    four_point_shared_vertex_weights,
    full_support_weights,
    region_margin,
    saturated_region_check_m4,
    search_disjoint_four_point,
)
from .graphs import (
    Permutation,
    SupportGraph,
    apply_to_design,
    apply_to_params,
    is_path,
    is_tree,
    q_matrix,
    support_graph,
)
from .optimality import KW_TOLERANCE, KwCertificate, d_efficiency, kw_check
from .regions import (
    PathDesign,
    RegionMembership,
    find_optimal_saturated,
    g_value,
    region_membership,
)
from .solver import RestrictedSolverResult, SolverConfig, SolverResult, solve, solve_restricted

__version__ = "0.1.0"

__all__ = [
    "BtDesignError",
    "ClassificationError",
    "ConsistencyError",
    "Design",
    "InfoMatrix",
    "KW_TOLERANCE",
    "KwCertificate",
    "Pair",
    "Parameters",
    "PathDesign",
    "Permutation",
    "RegionKind",
    "RegionLabel",
    "RegionMembership",
    "RestrictedSolverResult",
    "SingularMatrixError",
    "SolverConfig",
    "SolverResult",
    "SupportGraph",
    "all_pairs",
    "apply_to_design",
    "apply_to_params",
    "classify_m4",
    "claw_infeasibility_sample",
    "claw_infeasibility_scan",
    "d_efficiency",
    "disjoint_four_point_residuals",
    "find_optimal_saturated",
    "five_point_weights",
    "four_point_shared_vertex_weights",
    "full_support_weights",
    "g_value",
    "information_matrix",
    "is_path",
    "is_tree",
    "kw_check",
    "log_det",
    "q_matrix",
    "region_margin",
    "region_membership",
    "regression_vector",
    "saturated_region_check_m4",
    "search_disjoint_four_point",
    "solve",
    "solve_restricted",
    "support_graph",
]
