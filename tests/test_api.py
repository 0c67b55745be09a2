"""The package's public names: an explicit list, so the API cannot grow unnoticed."""

import btdesign

PUBLIC = {
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
}


def test_all_is_the_pinned_set():
    assert len(btdesign.__all__) == len(set(btdesign.__all__))
    assert set(btdesign.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in btdesign.__all__:
        assert getattr(btdesign, name) is not None, name
