"""Locally D-optimal designs for Bradley-Terry paired comparisons.

The package computes, classifies, and certifies optimal comparison designs:
closed-form designs and optimality regions for four alternatives, saturated
path-design regions for any number of alternatives, and an iterative solver
that doubles as an independent verification oracle.
"""

from .core import (
    BtDesignError,
    Design,
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
    classify_m4,
    search_disjoint_four_point,
)
from .optimality import KW_TOLERANCE, KwCertificate, d_efficiency, kw_check
from .regions import (
    PathDesign,
    RegionKind,
    RegionLabel,
    RegionMembership,
    find_optimal_saturated,
    region_margin,
    region_membership,
)
from .solver import SolverResult, solve

__version__ = "0.1.0"

__all__ = [
    "BtDesignError",
    "ClassificationError",
    "ConsistencyError",
    "Design",
    "KW_TOLERANCE",
    "KwCertificate",
    "Pair",
    "Parameters",
    "PathDesign",
    "RegionKind",
    "RegionLabel",
    "RegionMembership",
    "SingularMatrixError",
    "SolverResult",
    "all_pairs",
    "classify_m4",
    "d_efficiency",
    "find_optimal_saturated",
    "information_matrix",
    "kw_check",
    "log_det",
    "region_margin",
    "region_membership",
    "regression_vector",
    "search_disjoint_four_point",
    "solve",
]
