"""Directional derivatives and the equivalence-theorem optimality check.

A design is locally D-optimal exactly when every comparison direction has
nonpositive Frechet derivative of log det, i.e.

    lambda_ij f(i,j)^T M(xi, beta)^{-1} f(i,j) - (m - 1) <= 0

for all pairs, with equality on the design's support.  kw_check evaluates
every direction and returns the result as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (  # noqa: F401 - unused cholesky_pivots: bench/tests checks this binding is traced
    Design,
    Pair,
    Parameters,
    SingularMatrixError,
    _derivatives,
    all_pairs,
    cholesky_pivots,
    information_matrix,
    intensity_vector,
    log_det,
    regression_matrix,
)

# Absolute tolerance on directional derivatives for declaring optimality.
# Closed-form designs evaluate well below this; the iterative solver is
# asked to converge below it as well.
KW_TOLERANCE = 1e-7


@dataclass(frozen=True)
class KwCertificate:
    """Outcome of the equivalence-theorem check at one design and parameter point.

    derivatives maps each pair to lambda_ij f^T M^{-1} f - (m-1); the design
    is optimal iff the largest of these is nonpositive (within the recorded
    tolerance), and support pairs then sit at zero.
    """

    derivatives: Mapping[Pair, float]
    max_violation: float
    is_optimal: bool
    equality_pairs: frozenset[Pair]
    tolerance: float = KW_TOLERANCE
    singular: bool = False


def kw_check(design: Design, params: Parameters, tolerance: float = KW_TOLERANCE) -> KwCertificate:
    """Evaluate the optimality criterion on every pair and certify the result."""
    if design.m != params.m:
        raise ValueError(f"design has m={design.m} but parameters have m={params.m}")
    pairs = all_pairs(params.m)
    found = _derivatives(design.as_vector(), intensity_vector(params.beta), regression_matrix(params.m))
    if found is None:
        return KwCertificate(
            derivatives={},
            max_violation=float("inf"),
            is_optimal=False,
            equality_pairs=frozenset(),
            tolerance=tolerance,
            singular=True,
        )
    vals = found[0] - (params.m - 1)
    derivatives = dict(zip(pairs, vals.tolist()))
    max_violation = float(vals.max())
    equality = frozenset(p for p, v in derivatives.items() if abs(v) <= tolerance)
    return KwCertificate(
        derivatives=derivatives,
        max_violation=max_violation,
        is_optimal=max_violation <= tolerance,
        equality_pairs=equality,
        tolerance=tolerance,
    )


def d_efficiency(design: Design, reference: Design, params: Parameters) -> float:
    """(det M(design) / det M(reference))^(1/(m-1)).

    The reference must be nonsingular; a singular design has efficiency 0.
    """
    ld_ref = log_det(information_matrix(reference, params))
    if ld_ref == float("-inf"):
        raise SingularMatrixError("reference design has singular information matrix")
    ld = log_det(information_matrix(design, params))
    if ld == float("-inf"):
        return 0.0
    return float(np.exp((ld - ld_ref) / (params.m - 1)))
