"""Complete closed-form optimal-design classification for four alternatives.

With four alternatives the parameter space R^3 is covered by optimality
regions of four design shapes: the full six-pair support, five-point
designs missing one pair, four-point designs missing two pairs that share a
vertex, and saturated three-point path designs.  Each shape's weights solve
the equal-derivative stationarity system on its support.  They are written
without division, as in the paper's semi-algebraic description: polynomial
numerators over a common denominator that equals their sum, plus one slack
polynomial per missing pair.  A point is in the region exactly when every
numerator is nonzero with one common sign and every slack is >= 0.

Every closed-form design returned here is re-verified with the equivalence
theorem before being handed out; a formula that fails its own certificate
raises ConsistencyError instead of returning a wrong design.  Near symmetric
points, such as beta = (-12, -12, 0), the float polynomials cancel; when the
float pass finds no region or fails a certificate, classify_m4 evaluates the
same float intensities once more as Fractions, exactly, and certifies as usual.

Classification needs one candidate per kind.  Let a-b-c-d be the path that
visits the alternatives in descending order of beta (sorted_beta_path; its
reversal names the same candidates).  classify_m4 tries, in this order:

1. full support;
2. the five-point design missing the end pair (a, d);
3. the four-point design missing (a, d) and the wider two-step pair:
   (a, c) when |beta_a - beta_c| >= |beta_b - beta_d|, else (b, d);
4. the path a-b-c-d itself.

Every candidate keeps the path's three edges; the kinds differ only in which
of the other three pairs they drop.

What is proven.  The regions module docstring proves that no path other
than a-b-c-d can hold beta in its region.  Ties never change the answer:
for m = 4 the map w -> M is injective (M_ij = -w_ij lambda_ij for
i != j < 4, and the diagonal then gives the pairs with the control), and
log det is strictly concave in M, so the optimal design is unique and is
unchanged by every relabeling that leaves all lambda unchanged.

- If beta_a = beta_b, swapping a and b leaves lambda unchanged, so
  w_ad = w_bd and no five-point design drops (a, d) alone.  The same holds
  for beta_c = beta_d.  How the sort breaks the tie does not matter.
- If |beta_a - beta_c| = |beta_b - beta_d|, the reflection a<->d, b<->c
  leaves lambda unchanged, so w_ac = w_bd and no four-point design drops
  only one of the two.  The tie-break in 3. does not matter.

What is only verified.  That every optimal support contains the sorted
path's edges, so that the candidates above are the only ones of their kinds
that can hold beta, is checked, not proven.  Against the search over all 6
five-point and 12 shared-vertex four-point patterns that this rule
replaced, labels (kind, weights, missing pairs, path, certificate) and
errors were bit-identical at 201 410 lattice and random points with |beta|
up to 40 and at 6 000 points bisected to within 2^-40 of a kind boundary;
independently, solve's certified support contains every sorted-path edge
at random points for m = 4..7.  solve starts on that sorted path, yet the
check stays independent of the start: the optimum is unique (log det is
strictly concave in M, and w -> M is injective), so the start changes
only how soon solve gets there, never which support it certifies.  The
search stays as the test oracle (tests/helpers.classify_by_pattern_search).
A point where the rule failed would raise ClassificationError; it could
never return an uncertified design, because every label passes kw_check.

Four-point designs whose two missing pairs are disjoint carry no known
optimality region; search_disjoint_four_point probes that system
numerically from random starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .core import (
    SUPPORT_THRESHOLD,
    BtDesignError,
    Design,
    Pair,
    Parameters,
    cholesky_pivots,
    information_matrix,
    intensity_vector,
)
from .optimality import KW_TOLERANCE, KwCertificate, kw_check
from .regions import PathDesign, sorted_beta_path

Scalar = Union[float, np.ndarray, Fraction]
# Six intensities in _PAIRS4 order: floats, ndarray columns or Fractions.
Intensities = Sequence[Scalar]

_PAIRS4 = (Pair(1, 2), Pair(1, 3), Pair(1, 4), Pair(2, 3), Pair(2, 4), Pair(3, 4))
# The saturated inequality system below is written for the path 3-1-2-4:
# reference vertex v sits at position _SATURATED_POSITIONS[v - 1] of the path.
_SATURATED_POSITIONS = (1, 2, 0, 3)

# Each relabeling tau of the vertices (reference vertex a -> tau[a - 1]) as a
# tuple of columns: the k-th reference pair (a, b) reads the intensity of
# (tau[a - 1], tau[b - 1]) from column _COLUMNS[tau][k].
_COLUMNS = {
    tau: tuple(_PAIRS4.index(Pair(tau[p.i - 1], tau[p.j - 1])) for p in _PAIRS4)
    for tau in itertools.permutations((1, 2, 3, 4))
}


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
    UNSATURATED = "unsaturated"  # a solver answer off every path region; never from classify_m4


@dataclass(frozen=True)
class RegionLabel:
    """A classification of a parameter point with its design's certificate.

    missing_pairs lists the unsupported pairs for the five- and four-point
    kinds; path is set for the saturated kind.  classify_m4 returns only
    labels whose certificate holds.
    """

    kind: RegionKind
    design: Design
    certificate: KwCertificate
    missing_pairs: tuple[Pair, ...] = ()
    path: PathDesign | None = None


def _intensities(params: Parameters) -> list[float]:
    # Python floats: the closed forms below run about 40 % slower on numpy scalars.
    return params.intensities.tolist()


def _closed_form_design(raw: Callable, tau: tuple[int, ...], lam: Intensities) -> Design | None:
    """The design N / sum(N) of one closed-form kind; None outside its region.

    Relabels the intensities by tau and evaluates the representative's
    numerators N and slacks with raw, one of the three *_raw functions below.
    Inside means every numerator is nonzero with one common sign and every
    slack is nonnegative.  The numerators belong to the last pairs of the
    reference order, carried by tau.
    """
    columns = _COLUMNS[tau]
    numerators, slacks = raw([lam[c] for c in columns])
    if not (all(n > 0 for n in numerators) or all(n < 0 for n in numerators)):
        return None
    if not all(s >= 0 for s in slacks):
        return None
    total = sum(numerators)
    w = np.zeros(6)
    w[list(columns[6 - len(numerators):])] = [float(n / total) for n in numerators]
    return Design(4, w)


# ---------------------------------------------------------------------------
# Saturated designs: polynomial inequality system
# ---------------------------------------------------------------------------


def saturated_inequality_values(path: PathDesign, lam: Intensities) -> tuple[Scalar, Scalar, Scalar]:
    """The three region polynomials of a 4-vertex path; inside means all <= 0.

    For the reference path 3-1-2-4 the system reads

        L14 (L12 + L24) - L12 L24                     <= 0
        L23 (L12 + L13) - L12 L13                     <= 0
        L34 (L12 L24 + L12 L13 + L13 L24) - L12 L13 L24  <= 0

    and a general path is handled by relabeling onto the reference.  lam
    holds the six intensities in all_pairs(4) order.
    """
    if path.m != 4:
        raise ValueError(f"the polynomial system is specific to m=4, got m={path.m}")
    tau = tuple(path.order[k] for k in _SATURATED_POSITIONS)
    l12, l13, l14, l23, l24, l34 = (lam[c] for c in _COLUMNS[tau])
    v1 = l14 * (l12 + l24) - l12 * l24
    v2 = l23 * (l12 + l13) - l12 * l13
    v3 = l34 * (l12 * l24 + l12 * l13 + l13 * l24) - l12 * l13 * l24
    return v1, v2, v3


# ---------------------------------------------------------------------------
# Full support: degree-9 weight numerators
# ---------------------------------------------------------------------------


def _full_numerator(lam: Intensities, columns: tuple[int, ...]) -> Scalar:
    """Stationarity-solution numerator of w_ij; (k, l) is the complement.

    columns holds the columns of (ij, ik, il, jk, jl, kl).
    """
    lij, lik, lil, ljk, ljl, lkl = (lam[c] for c in columns)
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


# For each pair (i, j) with complement (k, l): the relabeling 1234 -> ijkl.
_FULL_COLUMNS = tuple(
    _COLUMNS[(p.i, p.j, *sorted({1, 2, 3, 4} - {p.i, p.j}))] for p in _PAIRS4
)


def full_support_raw(lam: Intensities) -> tuple[tuple[Scalar, ...], tuple[()]]:
    """The six weight numerators and no slacks.

    lam and the numerators are both in all_pairs(4) order; each weight is its
    numerator over their sum, and the point is in the full-support region
    exactly when all six share one strict sign.
    """
    return tuple(_full_numerator(lam, columns) for columns in _FULL_COLUMNS), ()


# ---------------------------------------------------------------------------
# Five-point designs: one pair unsupported
# ---------------------------------------------------------------------------


def five_point_raw(lam: Intensities) -> tuple[tuple[Scalar, ...], tuple[Scalar]]:
    """Representative five-point solution (missing pair (1,2)) and its boundary slack.

    Takes the six intensities in reference labels and returns the weight
    numerators of (1,3), (1,4), (2,3), (2,4), (3,4) over the common
    denominator 3 d1 d2, and the slack of the missing-direction condition;
    the derivative toward (1,2) is nonpositive exactly when the slack is >= 0.
    """
    l12, l13, l14, l23, l24, l34 = lam

    d1 = l13**2 * (l14 - l34) ** 2 - 2 * l13 * l14 * l34 * (l14 + l34) + l14**2 * l34**2
    d2 = l23**2 * (l24 - l34) ** 2 - 2 * l23 * l24 * l34 * (l24 + l34) + l24**2 * l34**2

    n13 = 2 * l14 * l34 * (l14 * l34 - l13 * (l14 + l34)) * d2
    n14 = 2 * l13 * l34 * (l13 * (l34 - l14) - l14 * l34) * d2
    n23 = 2 * l24 * l34 * (l24 * l34 - l23 * (l24 + l34)) * d1
    n24 = 2 * l23 * l34 * (l23 * (l34 - l24) - l24 * l34) * d1
    n34 = (
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

    lhs = l12 * (
        l13 * (l14 * (l23 * (l24 - l34) - l24 * l34) + l34 * (l23 * (l34 - l24) - l24 * l34))
        - l14 * l34 * (l23 * (l24 + l34) - l24 * l34)
    )
    rhs = -2 * l13 * l14 * l23 * l24 * l34
    return (n13, n14, n23, n24, n34), (lhs - rhs,)


def _five_point_tau(missing: Pair) -> tuple[int, ...]:
    return (missing.i, missing.j, *sorted({1, 2, 3, 4} - {missing.i, missing.j}))


# ---------------------------------------------------------------------------
# Four-point designs, missing pairs sharing a vertex
# ---------------------------------------------------------------------------


def four_point_shared_raw(lam: Intensities) -> tuple[tuple[Scalar, ...], tuple[Scalar, Scalar]]:
    """Representative solution for missing pairs (1,2) and (1,3).

    Takes the six intensities in reference labels and returns the weight
    numerators of (1,4), (2,3), (2,4), (3,4) over the common denominator
    3 d, so w14 is d over 3 d, one third, and the slacks of the two
    missing-direction conditions (both must be >= 0 inside the region).
    The first monomial of the w34 numerator is taken as L23*L24; this is
    the variant under which the four weights sum to one and the certificate
    closes.
    """
    l12, l13, l14, l23, l24, l34 = lam

    d = (
        l23**2 * l24**2
        + l23**2 * l34**2
        + l24**2 * l34**2
        - 2 * l23**2 * l24 * l34
        - 2 * l23 * l24**2 * l34
        - 2 * l23 * l24 * l34**2
    )
    n23 = 2 * l24 * l34 * (l24 * l34 - l23 * l24 - l23 * l34)
    n24 = 2 * l23 * l34 * (l23 * l34 - l23 * l24 - l24 * l34)
    n34 = 2 * l23 * l24 * (l23 * l24 - l23 * l34 - l24 * l34)

    slack12 = l14 * l24 - l12 * (l14 + l24)
    slack13 = l14 * l34 - l13 * (l14 + l34)
    return (d, n23, n24, n34), (slack12, slack13)


def _four_point_tau(missing1: Pair, missing2: Pair) -> tuple[int, ...]:
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
    return v, b, c, d


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
    floor = 16.0 * float(np.finfo(float).eps) * _condition_estimate(design, params)
    if cert.max_violation <= max(KW_TOLERANCE, floor):
        return kw_check(design, params, tolerance=max(KW_TOLERANCE, floor))
    raise ConsistencyError(
        f"{what} claimed optimality at beta={params.beta} but the certificate "
        f"shows violation {cert.max_violation:.3e}"
    )


def _condition_estimate(design: Design, params: Parameters) -> float:
    """Squared pivot ratio of M; callers have ruled out a singular M."""
    d = np.diag(cholesky_pivots(information_matrix(design, params)))
    return float((d.max() / d.min()) ** 2)


def _candidates(
    params: Parameters, lam: Intensities
) -> Iterator[tuple[RegionKind, Design | None, tuple[Pair, ...], PathDesign | None, str]]:
    """The one candidate of each kind, largest support first, each built when reached.

    Yields (kind, design or None outside its region, missing pairs, path,
    description); the module docstring says why no other candidate is needed.
    """
    design = _closed_form_design(full_support_raw, (1, 2, 3, 4), lam)
    yield RegionKind.FULL_SUPPORT, design, (), None, "full-support formula"
    path = sorted_beta_path(params)
    a, b, c, d = path.order
    end = Pair(a, d)
    design = _closed_form_design(five_point_raw, _five_point_tau(end), lam)
    yield RegionKind.FIVE_POINT, design, (end,), None, f"five-point formula missing {end}"
    beta = (*params.beta, 0.0)
    wider = Pair(a, c) if abs(beta[a - 1] - beta[c - 1]) >= abs(beta[b - 1] - beta[d - 1]) else Pair(b, d)
    missing = tuple(sorted((end, wider)))
    what = "four-point formula missing {}, {}".format(*missing)
    design = _closed_form_design(four_point_shared_raw, _four_point_tau(*missing), lam)
    yield RegionKind.FOUR_POINT_SHARED_VERTEX, design, missing, None, what
    design = path.design() if all(v <= 0.0 for v in saturated_inequality_values(path, lam)) else None
    yield RegionKind.SATURATED, design, (), path, f"saturated region of path {path.order}"


def _first_certified(params: Parameters, lam: Intensities) -> RegionLabel | None:
    for kind, design, missing, path, what in _candidates(params, lam):
        if design is not None:
            return RegionLabel(kind, design, _certify(design, params, what), missing, path)
    return None


def classify_m4(params: Parameters) -> RegionLabel:
    """Map a parameter point to its optimality region and certified design.

    One candidate per kind, taken from the sorted-beta path, is tried from
    largest to smallest support, which fixes which region claims a shared
    boundary: full support is open, saturated regions are closed, and
    intermediate boundaries go to the first kind that certifies.  When the
    float pass finds no region or a candidate fails its certificate, the
    same intensities are tried once more as Fractions, where the division-free
    polynomials evaluate exactly; a singular certificate is not retried.
    """
    if params.m != 4:
        raise ValueError(f"closed-form classification requires m=4, got m={params.m}")
    lam = _intensities(params)
    try:
        label = _first_certified(params, lam)
    except ConsistencyError:
        label = None
    if label is None:
        label = _first_certified(params, [Fraction(x) for x in lam])
    if label is None:
        raise ClassificationError(f"no optimality region certified beta={params.beta}")
    return label


def region_margin(label: RegionLabel) -> float:
    """Slack of the binding region constraint; nonpositive inside the region.

    A design that supports every pair binds on its smallest weight; any other
    binds on the largest directional derivative toward an unsupported pair.
    A singular certificate has no derivatives, and its margin is inf.
    """
    w = label.design.w
    if label.kind is RegionKind.FULL_SUPPORT:
        return -float(w.min())
    if label.certificate.singular:
        return math.inf
    off = label.certificate.derivatives[w <= SUPPORT_THRESHOLD]
    return float(off.max()) if off.size else -float(w.min())


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


# The representative support (1,3), (1,4), (2,3), (2,4) misses (1,2) and (3,4).
_DISJOINT_COLUMNS = [1, 2, 3, 4]
# Starts per block of the search: the block's intensities, its (n, 4, 4)
# Jacobian and the copies det and solve make stay near 1 MB each, however
# many starts are drawn.
_DISJOINT_BLOCK = 8192


def _disjoint_system(w: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and boundary slacks of the disjoint-orbit system, one row per start.

    w holds weights on the representative support, shape (n, 4), and lam
    the six intensities in _PAIRS4 order, shape (n, 6).  The supported
    pairs must equalize t_e = lambda_e (w_e^2 - w_e/3): the residuals are
    the three consecutive differences of t and sum(w) - 1.  The two slacks
    are 3 minus the missing-direction expressions of (1,2) and (3,4),
    nonnegative where the derivative conditions hold.
    """
    lam_sup = lam[:, _DISJOINT_COLUMNS]
    t = lam_sup * (w**2 - w / 3.0)
    residuals = np.stack([t[:, 0] - t[:, 1], t[:, 1] - t[:, 2], t[:, 2] - t[:, 3], w.sum(axis=1) - 1.0], axis=1)
    w_il, w_jk, w_jl = w[:, 1], w[:, 2], w[:, 3]
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = lam_sup[:, 3] * w_jl * (3.0 * w_jl - 1.0)
        lhs1 = lam[:, 0] * (3.0 * (w_il + w_jl) - 2.0) * (3.0 * (w_il + w_jl) - 1.0) / denom
        lhs2 = lam[:, 5] * (3.0 * (w_jk + w_jl) - 2.0) * (3.0 * (w_jk + w_jl) - 1.0) / denom
    return residuals, np.stack([3.0 - lhs1, 3.0 - lhs2], axis=1)


def _disjoint_newton(w: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Up to 60 Newton steps on the disjoint-orbit system from the starts w.

    All starts step together until every residual is below 1e-14; a start
    whose Jacobian is singular stays where it is.
    """
    lam_sup = lam[:, _DISJOINT_COLUMNS]
    for _ in range(60):
        F, _ = _disjoint_system(w, lam)
        dt = lam_sup * (2.0 * w - 1.0 / 3.0)
        J = np.zeros((len(w), 4, 4))
        J[:, 0, 0] = dt[:, 0]
        J[:, 0, 1] = -dt[:, 1]
        J[:, 1, 1] = dt[:, 1]
        J[:, 1, 2] = -dt[:, 2]
        J[:, 2, 2] = dt[:, 2]
        J[:, 2, 3] = -dt[:, 3]
        J[:, 3, :] = 1.0
        # numpy warns when J is exactly singular; the test below already
        # treats such starts as singular.
        with np.errstate(divide="ignore", invalid="ignore"):
            dets = np.linalg.det(J)
        bad = ~np.isfinite(dets) | (np.abs(dets) < 1e-30)
        J[bad] = np.eye(4)
        step = np.linalg.solve(J, F[..., None])[..., 0]
        step[bad] = 0.0
        w = w - step
        if np.abs(F).max() < 1e-14:
            break
    return w


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
    margin = 1e-6

    beta = rng.uniform(-beta_scale, beta_scale, size=(n_starts, 3))
    w = rng.dirichlet(np.ones(4), size=n_starts)
    interior = np.zeros(n_starts, dtype=bool)
    slack = np.empty(n_starts)
    for lo in range(0, n_starts, _DISJOINT_BLOCK):
        block = slice(lo, lo + _DISJOINT_BLOCK)
        lam = intensity_vector(beta[block])
        w[block] = wb = _disjoint_newton(w[block], lam)
        residuals, slacks = _disjoint_system(wb, lam)
        converged = np.abs(residuals).max(axis=1) < 1e-10
        interior[block] = converged & (wb.min(axis=1) > margin) & (wb.max(axis=1) < 1.0 / 3.0 - margin)
        slack[block] = slacks.min(axis=1)

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
            candidate = Design(4, np.pad(w[idx] / w[idx].sum(), 1))  # zero on (1,2) and (3,4)
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
