"""Complete closed-form optimal-design classification for four alternatives.

With four alternatives the parameter space R^3 is covered by optimality
regions of four design shapes: the full six-pair support, five-point
designs missing one pair, four-point designs missing two pairs that share a
vertex, and saturated three-point path designs.  Each shape has explicit
weight formulas in the intensities, obtained by solving the equal-derivative
stationarity system on the shape's support; region membership is weight
positivity plus nonpositive derivatives toward the missing pairs.

Every closed-form design returned here is re-verified with the equivalence
theorem before being handed out; a formula that fails its own certificate
raises ConsistencyError instead of returning a wrong design.

Four-point designs whose two missing pairs are disjoint carry no known
optimality region; this module provides the stationarity residuals of that
system and a randomized search utility for probing it numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .core import (
    BtDesignError,
    Design,
    Pair,
    Parameters,
    intensity_array,
    intensity_table,
)
from .optimality import KW_TOLERANCE, KwCertificate, kw_check
from .regions import PathDesign, sorted_beta_path

Scalar = Union[float, np.ndarray]
LamMap = Mapping[Pair, Scalar]

_PAIRS4 = (Pair(1, 2), Pair(1, 3), Pair(1, 4), Pair(2, 3), Pair(2, 4), Pair(3, 4))
_P12, _P13, _P14, _P23, _P24, _P34 = _PAIRS4
# The saturated inequality system below is written for this vertex order.
_SATURATED_REFERENCE_ORDER = (3, 1, 2, 4)


class ClassificationError(BtDesignError):
    """No certified label could be produced for the parameter point.

    Raised when no region's conditions hold (a bug signal: the regions tile
    all of parameter space) or when the point sits beyond the numerically
    certifiable range, i.e. the optimal design's own information matrix
    trips the singularity threshold.
    """


class ConsistencyError(BtDesignError):
    """A closed-form design failed its own optimality certificate."""


class RegionKind(Enum):
    FULL_SUPPORT = "full-support"
    FIVE_POINT = "five-point"
    FOUR_POINT_SHARED_VERTEX = "four-point-shared-vertex"
    SATURATED = "saturated"


@dataclass(frozen=True)
class RegionLabel:
    """A certified classification of a parameter point.

    missing_pairs lists the unsupported pairs for the five- and four-point
    kinds; path is set for the saturated kind.
    """

    kind: RegionKind
    design: Design
    certificate: KwCertificate
    missing_pairs: tuple[Pair, ...] = ()
    path: PathDesign | None = None


def _require_m4(params: Parameters) -> None:
    if params.m != 4:
        raise ValueError(f"closed-form classification requires m=4, got m={params.m}")


def _lam_map(params: Parameters) -> dict[Pair, float]:
    return dict(intensity_table(params).values)


@lru_cache(maxsize=None)
def _relabel_sources(tau_key: tuple[int, int, int, int]) -> tuple[Pair, ...]:
    tau = dict(enumerate(tau_key, start=1))
    return tuple(Pair(tau[p.i], tau[p.j]) for p in _PAIRS4)


def _relabeled(lam: LamMap, tau: Mapping[int, int]) -> dict[Pair, Scalar]:
    """Table in representative labels: entry (a,b) is lam at (tau(a), tau(b))."""
    sources = _relabel_sources((tau[1], tau[2], tau[3], tau[4]))
    return {p: lam[s] for p, s in zip(_PAIRS4, sources)}


# ---------------------------------------------------------------------------
# Saturated designs: polynomial inequality system
# ---------------------------------------------------------------------------


def saturated_inequality_values(path: PathDesign, lam: LamMap) -> tuple[Scalar, Scalar, Scalar]:
    """The three region polynomials of a 4-vertex path; inside means all <= 0.

    For the reference path 3-1-2-4 the system reads

        L14 (L12 + L24) - L12 L24                     <= 0
        L23 (L12 + L13) - L12 L13                     <= 0
        L34 (L12 L24 + L12 L13 + L13 L24) - L12 L13 L24  <= 0

    and a general path is handled by relabeling onto the reference.
    """
    if path.m != 4:
        raise ValueError(f"the polynomial system is specific to m=4, got m={path.m}")
    tau = {ref: actual for ref, actual in zip(_SATURATED_REFERENCE_ORDER, path.order)}
    L = _relabeled(lam, tau)
    l12, l13, l14, l23, l24, l34 = (L[p] for p in _PAIRS4)
    v1 = l14 * (l12 + l24) - l12 * l24
    v2 = l23 * (l12 + l13) - l12 * l13
    v3 = l34 * (l12 * l24 + l12 * l13 + l13 * l24) - l12 * l13 * l24
    return v1, v2, v3


def saturated_region_check_m4(params: Parameters, path: PathDesign) -> bool:
    """Membership in the path's region via the cleared polynomial system."""
    _require_m4(params)
    vals = saturated_inequality_values(path, _lam_map(params))
    return all(v <= 0.0 for v in vals)


# ---------------------------------------------------------------------------
# Full support: degree-9 weight numerators over the shared normalizer
# ---------------------------------------------------------------------------


def _full_numerator(L: LamMap, i: int, j: int, k: int, l: int) -> Scalar:
    """Stationarity-solution numerator of w_ij; (k, l) is the complement."""
    lij, lik, lil, ljk, ljl, lkl = (
        L[Pair(i, j)],
        L[Pair(i, k)],
        L[Pair(i, l)],
        L[Pair(j, k)],
        L[Pair(j, l)],
        L[Pair(k, l)],
    )
    bracket = (
        lij * lik * lil * ljk * ljl
        - lij * lik * lil * ljk * lkl
        - lij * lik * lil * ljl * lkl
        - lij * lik * ljk * ljl * lkl
        + lij * lik * ljk * lkl**2
        - lij * lik * ljl * lkl**2
        - lij * lil * ljk * ljl * lkl
        - lij * lil * ljk * lkl**2
        + lij * lil * ljl * lkl**2
        + 2 * lik * lil * ljk * ljl * lkl
    )
    return lik * lil * ljk * ljl * bracket


def _full_normalizer(L: LamMap) -> Scalar:
    """The normalizer A making the six weights sum to one (reference labels)."""
    lij, lik, lil, ljk, ljl, lkl = (L[p] for p in _PAIRS4)
    return 3 * (
        lij * lik**2 * lil**2 * ljk**2 * ljl**2
        + lij * lik * lil**2 * ljk * ljl**2 * lkl**2
        - lij * lik * lil**2 * ljk**2 * ljl * lkl**2
        - lij**2 * lik * lil**2 * ljk * ljl * lkl**2
        - lij * lik * lil**2 * ljk**2 * ljl**2 * lkl
        - lij * lik**2 * lil**2 * ljk * ljl**2 * lkl
        - lij * lik**2 * lil**2 * ljk**2 * ljl * lkl
        - lij**2 * lik * lil**2 * ljk**2 * ljl * lkl
        + lij**2 * lik**2 * lil**2 * ljk * ljl * lkl
        - lij * lik**2 * lil * ljk * ljl**2 * lkl**2
        - lij**2 * lik * lil * ljk * ljl**2 * lkl**2
        + lij * lik**2 * lil * ljk**2 * ljl * lkl**2
        - lij**2 * lik * lil * ljk**2 * ljl * lkl**2
        - lij**2 * lik**2 * lil * ljk * ljl * lkl**2
        - lij * lik**2 * lil * ljk**2 * ljl**2 * lkl
        + lij**2 * lik * lil * ljk**2 * ljl**2 * lkl
        - lij**2 * lik**2 * lil * ljk * ljl**2 * lkl
        + lij**2 * lik * lil**2 * ljk**2 * lkl**2
        + lij**2 * lik**2 * lil * ljl**2 * lkl**2
        + lij**2 * lik**2 * ljk * ljl**2 * lkl**2
        + lij**2 * lil**2 * ljk**2 * ljl * lkl**2
        + lik**2 * lil**2 * ljk**2 * ljl**2 * lkl
    )


def _complement(p: Pair) -> Pair:
    rest = sorted({1, 2, 3, 4} - {p.i, p.j})
    return Pair(rest[0], rest[1])


@lru_cache(maxsize=None)
def _complement_table() -> tuple[tuple[Pair, Pair], ...]:
    return tuple((p, _complement(p)) for p in _PAIRS4)


def full_support_raw(lam: LamMap) -> dict[Pair, Scalar]:
    """All six weight formulas evaluated as written (no positivity filter)."""
    A = _full_normalizer(lam)
    return {p: _full_numerator(lam, p.i, p.j, q.i, q.j) / A for p, q in _complement_table()}


def _full_support_design(lam: LamMap) -> Design | None:
    try:
        raw = full_support_raw(lam)
    except ZeroDivisionError:
        return None
    if not all(math.isfinite(w) and w > 0.0 for w in raw.values()):
        return None
    total = math.fsum(raw.values())
    return Design(4, {p: w / total for p, w in raw.items()})


def full_support_weights(params: Parameters) -> Design | None:
    """The six-point optimal design, or None when beta is outside its region.

    The formulas solve the system that makes all six directional derivatives
    equal; the parameter point lies in the full-support region exactly when
    every formula weight is strictly positive.
    """
    _require_m4(params)
    return _full_support_design(_lam_map(params))


# ---------------------------------------------------------------------------
# Five-point designs: one pair unsupported
# ---------------------------------------------------------------------------


def five_point_raw(lam: LamMap) -> tuple[dict[Pair, Scalar], Scalar]:
    """Representative five-point solution (missing pair (1,2)) plus boundary slack.

    Returns the five weight formulas as written and the slack of the
    missing-direction condition; the derivative toward (1,2) is nonpositive
    exactly when the slack is >= 0.
    """
    l12, l13, l14, l23, l24, l34 = (lam[p] for p in _PAIRS4)

    d1 = l13**2 * (l14 - l34) ** 2 - 2 * l13 * l14 * l34 * (l14 + l34) + l14**2 * l34**2
    d2 = l23**2 * (l24 - l34) ** 2 - 2 * l23 * l24 * l34 * (l24 + l34) + l24**2 * l34**2

    w13 = 2 * l14 * l34 * (l14 * l34 - l13 * (l14 + l34)) / (3 * d1)
    w14 = 2 * l13 * l34 * (l13 * (l34 - l14) - l14 * l34) / (3 * d1)
    w23 = 2 * l24 * l34 * (l24 * l34 - l23 * (l24 + l34)) / (3 * d2)
    w24 = 2 * l23 * l34 * (l23 * (l34 - l24) - l24 * l34) / (3 * d2)
    w34_num = (
        3 * l13**2 * l14**2 * l23**2 * l24**2
        - 4 * l13 * l14 * l23 * l24 * l34**4
        - 2 * l13 * l14 * l23**2 * l24**2 * l34**2
        + 4 * l13 * l14**2 * l23 * l24**2 * l34**2
        + 4 * l13**2 * l14 * l23 * l24**2 * l34**2
        + 4 * l13 * l14**2 * l23**2 * l24 * l34**2
        + 4 * l13**2 * l14 * l23**2 * l24 * l34**2
        - 2 * l13**2 * l14**2 * l23 * l24 * l34**2
        - 4 * l13 * l14**2 * l23**2 * l24**2 * l34
        - 4 * l13**2 * l14 * l23**2 * l24**2 * l34
        - 4 * l13**2 * l14**2 * l23 * l24**2 * l34
        - 4 * l13**2 * l14**2 * l23**2 * l24 * l34
        + 2 * l13 * l14 * l23**2 * l34**4
        + l13**2 * l14**2 * l23**2 * l34**2
        + 2 * l13 * l14 * l24**2 * l34**4
        + l13**2 * l14**2 * l24**2 * l34**2
        + 2 * l13**2 * l23 * l24 * l34**4
        + l13**2 * l23**2 * l24**2 * l34**2
        - l13**2 * l23**2 * l34**4
        - l13**2 * l24**2 * l34**4
        + 2 * l14**2 * l23 * l24 * l34**4
        + l14**2 * l23**2 * l24**2 * l34**2
        - l14**2 * l23**2 * l34**4
        - l14**2 * l24**2 * l34**4
    )
    w34 = w34_num / (3 * d1 * d2)

    lhs = l12 * (
        l13 * (l14 * (l23 * (l24 - l34) - l24 * l34) + l34 * (l23 * (l34 - l24) - l24 * l34))
        - l14 * l34 * (l23 * (l24 + l34) - l24 * l34)
    )
    rhs = -2 * l13 * l14 * l23 * l24 * l34
    slack = lhs - rhs

    weights = {_P13: w13, _P14: w14, _P23: w23, _P24: w24, _P34: w34}
    return weights, slack


def _five_point_tau(missing: Pair) -> dict[int, int]:
    others = sorted({1, 2, 3, 4} - {missing.i, missing.j})
    return {1: missing.i, 2: missing.j, 3: others[0], 4: others[1]}


def _five_point_design(lam: LamMap, missing: Pair, tau: Mapping[int, int]) -> Design | None:
    relabeled = _relabeled(lam, tau)
    try:
        raw, slack = five_point_raw(relabeled)
    except ZeroDivisionError:
        return None
    if not all(math.isfinite(w) and w > 0.0 for w in raw.values()):
        return None
    if not (math.isfinite(slack) and slack >= 0.0):
        return None
    total = math.fsum(raw.values())
    sources = dict(zip(_PAIRS4, _relabel_sources((tau[1], tau[2], tau[3], tau[4]))))
    return Design(4, {sources[p]: w / total for p, w in raw.items()})


def five_point_weights(params: Parameters, missing: Pair, tau: Mapping[int, int] | None = None) -> Design | None:
    """The five-point optimal design missing one pair, or None outside its region.

    The region requires all five weights strictly positive and the
    directional derivative toward the missing pair nonpositive.  tau
    overrides the relabeling onto the representative (testing hook; any
    relabeling sending the missing pair to (1,2) gives the same design).
    """
    _require_m4(params)
    if tau is None:
        tau = _five_point_tau(missing)
    elif {tau[1], tau[2]} != {missing.i, missing.j}:
        raise ValueError(f"relabeling {tau} does not send the missing pair to (1,2)")
    return _five_point_design(_lam_map(params), missing, tau)


# ---------------------------------------------------------------------------
# Four-point designs, missing pairs sharing a vertex
# ---------------------------------------------------------------------------


def four_point_shared_raw(lam: LamMap) -> tuple[dict[Pair, Scalar], Scalar, Scalar]:
    """Representative solution for missing pairs (1,2) and (1,3).

    Returns the four weights and the slacks of the two missing-direction
    conditions (both must be >= 0 inside the region).  The first monomial of
    the w34 numerator is taken as L23*L24; this is the variant under which
    the four weights sum to one and the certificate closes.
    """
    l12, l13, l14, l23, l24, l34 = (lam[p] for p in _PAIRS4)

    d = (
        l23**2 * l24**2
        + l23**2 * l34**2
        + l24**2 * l34**2
        - 2 * l23**2 * l24 * l34
        - 2 * l23 * l24**2 * l34
        - 2 * l23 * l24 * l34**2
    )
    w23 = 2 * l24 * l34 * (l24 * l34 - l23 * l24 - l23 * l34) / (3 * d)
    w24 = 2 * l23 * l34 * (l23 * l34 - l23 * l24 - l24 * l34) / (3 * d)
    w34 = 2 * l23 * l24 * (l23 * l24 - l23 * l34 - l24 * l34) / (3 * d)
    weights = {_P14: 1.0 / 3.0, _P23: w23, _P24: w24, _P34: w34}

    slack12 = l14 * l24 - l12 * (l14 + l24)
    slack13 = l14 * l34 - l13 * (l14 + l34)
    return weights, slack12, slack13


def _four_point_tau(missing1: Pair, missing2: Pair) -> dict[int, int]:
    shared = {missing1.i, missing1.j} & {missing2.i, missing2.j}
    if len(shared) != 1:
        raise ValueError(
            f"missing pairs {missing1}, {missing2} must share exactly one vertex; "
            "designs missing two disjoint pairs have no closed-form region"
        )
    (v,) = shared
    b = missing1.j if missing1.i == v else missing1.i
    c = missing2.j if missing2.i == v else missing2.i
    (d,) = {1, 2, 3, 4} - {v, b, c}
    return {1: v, 2: b, 3: c, 4: d}


def _four_point_design(lam: LamMap, tau: Mapping[int, int]) -> Design | None:
    relabeled = _relabeled(lam, tau)
    try:
        raw, slack12, slack13 = four_point_shared_raw(relabeled)
    except ZeroDivisionError:
        return None
    if not all(math.isfinite(w) and w > 0.0 for w in raw.values()):
        return None
    if not (math.isfinite(slack12) and slack12 >= 0.0 and math.isfinite(slack13) and slack13 >= 0.0):
        return None
    total = math.fsum(raw.values())
    sources = dict(zip(_PAIRS4, _relabel_sources((tau[1], tau[2], tau[3], tau[4]))))
    return Design(4, {sources[p]: w / total for p, w in raw.items()})


def four_point_shared_vertex_weights(
    params: Parameters, missing1: Pair, missing2: Pair, tau: Mapping[int, int] | None = None
) -> Design | None:
    """The four-point optimal design with two missing pairs at one vertex.

    Returns None when beta is outside the region (a weight is nonpositive
    or a missing-direction derivative is positive).  The missing pairs must
    share exactly one vertex; disjoint missing pairs form the other orbit,
    probed by :func:`search_disjoint_four_point` instead.
    """
    _require_m4(params)
    if tau is None:
        tau = _four_point_tau(missing1, missing2)
    else:
        _four_point_tau(missing1, missing2)  # validate the orbit
        targets = {Pair(tau[1], tau[2]), Pair(tau[1], tau[3])}
        if targets != {missing1, missing2}:
            raise ValueError(f"relabeling {tau} does not send the missing pairs to (1,2), (1,3)")
    return _four_point_design(_lam_map(params), tau)


def shared_vertex_patterns() -> list[tuple[Pair, Pair]]:
    """The 12 unordered choices of two missing pairs sharing one vertex."""
    return [
        (p, q)
        for p, q in itertools.combinations(_PAIRS4, 2)
        if len({p.i, p.j} & {q.i, q.j}) == 1
    ]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def _certify(design: Design, params: Parameters, what: str) -> KwCertificate:
    cert = kw_check(design, params, tolerance=KW_TOLERANCE)
    if cert.is_optimal:
        return cert
    if cert.singular:
        # The candidate's support spans, so a singular flag means some of
        # its own intensities sit below the pivot threshold: the point is
        # outside the range where any certificate can be evaluated.
        raise ClassificationError(
            f"the information matrix of the {what} candidate at beta={params.beta} "
            "is singular at the pivot threshold; the point is beyond the "
            "numerically certifiable range"
        )
    # The directional values are computed through M^{-1}, so they cannot be
    # resolved sharper than the conditioning of M allows; at extreme
    # parameters (some intensities near zero) the strict tolerance is below
    # that floor.  A transcription bug shows O(1) violations, far above it.
    floor = 16.0 * np.finfo(float).eps * _condition_estimate(design, params)
    if cert.max_violation <= max(KW_TOLERANCE, floor):
        return kw_check(design, params, tolerance=max(KW_TOLERANCE, floor))
    raise ConsistencyError(
        f"{what} claimed optimality at beta={params.beta} but the certificate "
        f"shows violation {cert.max_violation:.3e}"
    )


def _condition_estimate(design: Design, params: Parameters) -> float:
    from .core import cholesky_pivots, information_matrix

    L = cholesky_pivots(information_matrix(design, params).entries)
    if L is None:  # pragma: no cover - callers check singularity first
        return float("inf")
    d = np.diag(L)
    return float((d.max() / d.min()) ** 2)


def classify_m4(params: Parameters) -> RegionLabel:
    """Map a parameter point to its optimality region and certified design.

    Candidate kinds are tried from largest to smallest support, which fixes
    which region claims a shared boundary: full support is open, saturated
    regions are closed, and intermediate boundaries go to the first kind
    that certifies.
    """
    _require_m4(params)
    lam = _lam_map(params)

    design = _full_support_design(lam)
    if design is not None:
        return RegionLabel(
            kind=RegionKind.FULL_SUPPORT,
            design=design,
            certificate=_certify(design, params, "full-support formula"),
        )

    for missing in _PAIRS4:
        design = _five_point_design(lam, missing, _five_point_tau(missing))
        if design is not None:
            return RegionLabel(
                kind=RegionKind.FIVE_POINT,
                design=design,
                certificate=_certify(design, params, f"five-point formula missing {missing}"),
                missing_pairs=(missing,),
            )

    for missing1, missing2 in shared_vertex_patterns():
        design = _four_point_design(lam, _four_point_tau(missing1, missing2))
        if design is not None:
            return RegionLabel(
                kind=RegionKind.FOUR_POINT_SHARED_VERTEX,
                design=design,
                certificate=_certify(
                    design, params, f"four-point formula missing {missing1}, {missing2}"
                ),
                missing_pairs=(missing1, missing2),
            )

    # No other path's region can hold the point; see the regions module docstring.
    path = sorted_beta_path(params)
    if all(v <= 0.0 for v in saturated_inequality_values(path, lam)):
        design = path.design()
        return RegionLabel(
            kind=RegionKind.SATURATED,
            design=design,
            certificate=_certify(design, params, f"saturated region of path {path.order}"),
            path=path,
        )

    raise ClassificationError(f"no optimality region certified beta={params.beta}")


def region_margin(label: RegionLabel) -> float:
    """Slack of the binding region constraint; nonpositive inside the region.

    Full support binds on the smallest weight; every other kind binds on the
    largest directional derivative toward an unsupported pair.
    """
    if label.kind is RegionKind.FULL_SUPPORT:
        return -min(label.design.weights.values())
    support = set(label.design.support())
    return max(v for p, v in label.certificate.derivatives.items() if p not in support)


# ---------------------------------------------------------------------------
# Claw infeasibility scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClawScanReport:
    """Outcome of scanning the claw design's would-be optimality region.

    The claw on edges (1,2), (1,3), (1,4) is optimal only where three
    polynomial inequalities in the preference values hold simultaneously;
    max_min_slack < 0 everywhere confirms the region is empty on the scanned
    set.
    """

    points_checked: int
    feasible_count: int
    max_min_slack: float
    worst_point: tuple[float, float, float]


def _claw_min_slack(pi1: np.ndarray, pi2: np.ndarray, pi3: np.ndarray) -> np.ndarray:
    """Min slack of the three claw inequalities; >= 0 would mean feasible."""
    s1 = pi1 * (pi2 - pi3) ** 2 - (pi2 + pi3) * (pi1**2 + pi2 * pi3)
    s2 = pi1 * (pi2 - 1.0) ** 2 - (pi2 + 1.0) * (pi1**2 + pi2)
    s3 = pi1 * (pi3 - 1.0) ** 2 - (pi3 + 1.0) * (pi1**2 + pi3)
    return np.minimum(s1, np.minimum(s2, s3))


def _claw_report(pi: tuple[np.ndarray, np.ndarray, np.ndarray]) -> ClawScanReport:
    slack = _claw_min_slack(*pi)
    best = int(np.argmax(slack))
    return ClawScanReport(
        points_checked=int(slack.size),
        feasible_count=int(np.count_nonzero(slack >= 0.0)),
        max_min_slack=float(slack[best]),
        worst_point=(float(pi[0][best]), float(pi[1][best]), float(pi[2][best])),
    )


def claw_infeasibility_scan(
    points_per_axis: int = 100, lower: float = 1e-3, upper: float = 1e3
) -> ClawScanReport:
    """Log-spaced grid scan over (pi1, pi2, pi3) in [lower, upper]^3."""
    axis = np.geomspace(lower, upper, points_per_axis)
    p1, p2, p3 = np.meshgrid(axis, axis, axis, indexing="ij")
    return _claw_report((p1.ravel(), p2.ravel(), p3.ravel()))


def claw_infeasibility_sample(
    n_samples: int = 100_000, seed: int = 0, lower: float = 1e-3, upper: float = 1e3
) -> ClawScanReport:
    """Log-uniform random sampling over the same box as the grid scan."""
    rng = np.random.default_rng(seed)
    logs = rng.uniform(math.log(lower), math.log(upper), size=(3, n_samples))
    pi = np.exp(logs)
    return _claw_report((pi[0], pi[1], pi[2]))


# ---------------------------------------------------------------------------
# Disjoint-orbit four-point designs: stationarity residuals and search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointFourPointReport:
    """Stationarity residuals and boundary slacks of a disjoint-orbit design.

    The supported pairs (ik), (il), (jk), (jl) of a design missing the
    disjoint pairs (ij) and (kl) must equalize t_e = lambda_e (w_e^2 - w_e/3);
    residuals lists the three consecutive differences.  slack1 and slack2 are
    3 minus the two missing-direction expressions (nonnegative where the
    derivative conditions hold).
    """

    support: tuple[Pair, ...]
    t_values: tuple[float, float, float, float]
    residuals: tuple[float, float, float]
    slack1: float
    slack2: float


def _disjoint_support(missing1: Pair, missing2: Pair) -> tuple[Pair, Pair, Pair, Pair]:
    i, j = missing1.i, missing1.j
    k, l = missing2.i, missing2.j
    return Pair(i, k), Pair(i, l), Pair(j, k), Pair(j, l)


def disjoint_four_point_residuals(params: Parameters, design: Design) -> DisjointFourPointReport:
    """Evaluate the disjoint-orbit system at a concrete design."""
    _require_m4(params)
    support = design.support()
    if len(support) != 4:
        raise ValueError(f"expected a four-point design, got support {support}")
    missing = sorted(p for p in _PAIRS4 if p not in support)
    if len(missing) != 2 or {missing[0].i, missing[0].j} & {missing[1].i, missing[1].j}:
        raise ValueError(
            f"missing pairs {missing} are not disjoint; use the shared-vertex formulas instead"
        )
    lam = _lam_map(params)
    sup = _disjoint_support(missing[0], missing[1])
    w = [design.weight(p) for p in sup]
    t = tuple(lam[p] * (wp**2 - wp / 3.0) for p, wp in zip(sup, w))
    residuals = (t[0] - t[1], t[1] - t[2], t[2] - t[3])

    lij, lkl = lam[missing[0]], lam[missing[1]]
    w_il, w_jk, w_jl = w[1], w[2], w[3]
    ljl = lam[sup[3]]
    denom = ljl * w_jl * (3.0 * w_jl - 1.0)
    lhs1 = lij * (3.0 * (w_il + w_jl) - 2.0) * (3.0 * (w_il + w_jl) - 1.0) / denom
    lhs2 = lkl * (3.0 * (w_jk + w_jl) - 2.0) * (3.0 * (w_jk + w_jl) - 1.0) / denom
    return DisjointFourPointReport(
        support=sup,
        t_values=tuple(float(x) for x in t),
        residuals=tuple(float(r) for r in residuals),
        slack1=float(3.0 - lhs1),
        slack2=float(3.0 - lhs2),
    )


@dataclass(frozen=True)
class DisjointSearchReport:
    """Outcome of the randomized search for a non-saturated disjoint-orbit optimum.

    A start counts as interior when Newton converges to weights strictly
    inside (0, 1/3); certified_count is how many interior solutions also
    satisfied both boundary inequalities and passed the full optimality
    check (expected: zero).  best_slack is the largest min(slack1, slack2)
    seen over interior solutions.
    """

    n_starts: int
    interior_count: int
    certified_count: int
    best_slack: float
    best_point: tuple[float, ...] | None


def search_disjoint_four_point(
    n_starts: int = 100_000, seed: int = 0, beta_scale: float = 5.0
) -> DisjointSearchReport:
    """Newton-search the stationarity system from random starts.

    Each start draws a parameter point uniformly from [-beta_scale,
    beta_scale]^3 and a random interior design on the representative support
    (1,3), (1,4), (2,3), (2,4), then solves the three equalization equations
    plus the simplex constraint.  Interior solutions are checked against the
    two boundary inequalities and, when those hold, the full certificate.
    """
    rng = np.random.default_rng(seed)
    sup = _disjoint_support(Pair(1, 2), Pair(3, 4))
    margin = 1e-6

    beta = rng.uniform(-beta_scale, beta_scale, size=(n_starts, 3))
    bf = np.column_stack([beta, np.zeros(n_starts)])
    lam_sup = np.column_stack([intensity_array(bf[:, p.i - 1] - bf[:, p.j - 1]) for p in sup])
    lam12 = intensity_array(bf[:, 0] - bf[:, 1])
    lam34 = intensity_array(bf[:, 2] - bf[:, 3])

    w = rng.dirichlet(np.ones(4), size=n_starts)
    for _ in range(60):
        t = lam_sup * (w**2 - w / 3.0)
        F = np.stack(
            [t[:, 0] - t[:, 1], t[:, 1] - t[:, 2], t[:, 2] - t[:, 3], w.sum(axis=1) - 1.0],
            axis=1,
        )
        dt = lam_sup * (2.0 * w - 1.0 / 3.0)
        J = np.zeros((n_starts, 4, 4))
        J[:, 0, 0] = dt[:, 0]
        J[:, 0, 1] = -dt[:, 1]
        J[:, 1, 1] = dt[:, 1]
        J[:, 1, 2] = -dt[:, 2]
        J[:, 2, 2] = dt[:, 2]
        J[:, 2, 3] = -dt[:, 3]
        J[:, 3, :] = 1.0
        dets = np.linalg.det(J)
        bad = ~np.isfinite(dets) | (np.abs(dets) < 1e-30)
        J[bad] = np.eye(4)
        step = np.linalg.solve(J, F[..., None])[..., 0]
        step[bad] = 0.0
        w = w - step
        if np.abs(F).max() < 1e-14:
            break

    t = lam_sup * (w**2 - w / 3.0)
    res = np.abs(
        np.stack([t[:, 0] - t[:, 1], t[:, 1] - t[:, 2], t[:, 2] - t[:, 3], w.sum(axis=1) - 1.0], axis=1)
    ).max(axis=1)
    converged = res < 1e-10
    interior = converged & (w.min(axis=1) > margin) & (w.max(axis=1) < 1.0 / 3.0 - margin)

    w_il, w_jk, w_jl = w[:, 1], w[:, 2], w[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = lam_sup[:, 3] * w_jl * (3.0 * w_jl - 1.0)
        lhs1 = lam12 * (3.0 * (w_il + w_jl) - 2.0) * (3.0 * (w_il + w_jl) - 1.0) / denom
        lhs2 = lam34 * (3.0 * (w_jk + w_jl) - 2.0) * (3.0 * (w_jk + w_jl) - 1.0) / denom
    slack = np.minimum(3.0 - lhs1, 3.0 - lhs2)

    interior_idx = np.flatnonzero(interior)
    best_slack = float("-inf")
    best_point: tuple[float, ...] | None = None
    certified = 0
    for idx in interior_idx:
        s = float(slack[idx])
        if s > best_slack:
            best_slack = s
            best_point = tuple(float(b) for b in beta[idx]) + tuple(float(x) for x in w[idx])
        if s >= 0.0:
            candidate = Design(4, dict(zip(sup, (x / w[idx].sum() for x in w[idx]))))
            point = Parameters(4, tuple(beta[idx]))
            if kw_check(candidate, point).is_optimal:
                certified += 1
    return DisjointSearchReport(
        n_starts=n_starts,
        interior_count=int(interior.sum()),
        certified_count=certified,
        best_slack=best_slack,
        best_point=best_point,
    )
