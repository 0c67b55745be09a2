"""Directional derivatives and the equivalence-theorem optimality check.

A design is locally D-optimal exactly when every comparison direction has
nonpositive Frechet derivative of log det, i.e.

    lambda_ij f(i,j)^T M(xi, beta)^{-1} f(i,j) - (m - 1) <= 0

for all pairs, with equality on the design's support.  kw_check evaluates
every direction and returns the result as a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (  # noqa: F401 - unused cholesky_pivots: bench/tests checks this binding is traced
    Design,
    Parameters,
    SingularMatrixError,
    _derivatives,
    cholesky_pivots,
    information_matrix,
    log_det,
    regression_matrix,
)

# Absolute tolerance on directional derivatives for declaring optimality, the
# one every certificate is judged at.
KW_TOLERANCE = 1e-7


@dataclass(frozen=True, eq=False)
class KwCertificate:
    """Outcome of the equivalence-theorem check at one design and parameter point.

    derivatives is a read-only array holding, for each pair in all_pairs
    order, lambda_ij f^T M^{-1} f - (m-1), and is empty when M is singular;
    the design is optimal iff the largest of these is nonpositive within
    tolerance, which is KW_TOLERANCE for every certificate, and support
    pairs then sit at zero.
    """

    derivatives: np.ndarray
    max_violation: float
    is_optimal: bool
    singular: bool = False
    tolerance: ClassVar[float] = KW_TOLERANCE

    def __post_init__(self) -> None:
        self.derivatives.setflags(write=False)

    def __reduce__(self):  # pickle and deepcopy through the constructor, which keeps derivatives read-only
        return type(self), (self.derivatives, self.max_violation, self.is_optimal, self.singular)


def kw_check(design: Design, params: Parameters) -> KwCertificate:
    """Evaluate the optimality criterion on every pair and certify the result at KW_TOLERANCE."""
    if design.m != params.m:
        raise ValueError(f"design has m={design.m} but parameters have m={params.m}")
    found = _derivatives(design.w, params.intensities, regression_matrix(params.m))
    return _certificate(None if found is None else found[0], params.m)


def _certificate(values: np.ndarray | None, m: int) -> KwCertificate:
    """The certificate from a design's directional values; None means M is singular.

    values holds lambda f^T M^{-1} f for every pair: the first entry of a
    core._derivatives result, a saturated path's (m - 1) g from the tree
    identity (see the regions module docstring), or, for every m = 4 answer
    of classify_m4, the matrix-tree values of four_alt._kirchhoff_values,
    in floats or rounded once from Fractions.  Every certificate is made
    here, so solve's is kw_check of its design without a second evaluation.
    """
    if values is None:
        return KwCertificate(np.empty(0), float("inf"), False, singular=True)
    derivatives = values - float(m - 1)
    listed = derivatives.tolist()  # max costs a third of ndarray.max but skips a NaN, which sum keeps
    max_violation = math.nan if math.isnan(sum(listed)) else max(listed)
    return KwCertificate(derivatives, max_violation, max_violation <= KW_TOLERANCE)


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
