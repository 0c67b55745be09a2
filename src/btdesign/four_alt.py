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

Structure.  A triangle with edge intensities x, y, z has the edge
numerators 2 y z (y z - x (y + z)) and its two rotations, which sum to 2 D
with D = (x y + y z + z x)^2 - 4 x y z (x + y + z) (_triangle).  The
four-point design is the triangle 2-3-4 plus the edge (1,4) at one third,
and the five-point design is the triangles 1-3-4 and 2-3-4, which share
the edge (3,4).  The five-point slack is the full-support numerator of the
missing pair (1,2) over a positive factor (_full_bracket): the two regions
meet where that pair's full-support weight vanishes.

Every design returned here is re-verified with the equivalence theorem
before being handed out, and every certificate is judged at KW_TOLERANCE;
a formula that fails its own certificate raises ConsistencyError instead
of returning a wrong design.  Every candidate is certified without M by
_kirchhoff_values: M is the Laplacian of the support grounded at the
control, so lambda_p f_p^T M^{-1} f_p is lambda_p times an effective
resistance, by Kirchhoff's theorem a ratio of two sums of nonnegative
products (Ghosh, Boyd & Saberi 2008).  Such a ratio keeps a few ulps at any
condition of M, as GTH elimination does (Grassmann, Taksar & Heyman 1985).
The region tests evaluate the polynomials below, so the certificate still
cross-checks them.  kw_check, solve and the CLI's verify and optimize
still factor M.

Near symmetric points, such as beta = (-12, -12, 0), the float polynomials
cancel: a test can pass for a design that is not optimal, which its
certificate refuses, or no test passes.  At ties more than about 37 apart
1 + 4 lambda rounds to 1, and a negative slack can cancel to exactly 0.0,
as at beta = (40, 40, 40), where the design it lets through is within
rounding of the optimum and would certify under the wrong kind; so a float
slack of exactly 0.0 leaves its closed form unresolved (_CancelledSlack).
In each case classify_m4 evaluates the same float intensities once more as
Fractions, where the polynomials and the kernel, on the design's float
weights, are exact; each derivative is rounded once to a float.  An exact
certificate covers the float intensities, not lambda(beta) itself.  A
certificate that fails in exact arithmetic is a wrong formula, and its
ConsistencyError propagates.

Classification needs one candidate per kind.  Let a-b-c-d be the path that
visits the alternatives in descending order of beta (sorted_beta_path; its
reversal names the same candidates).  Everything below but the region
polynomials depends only on which of the 24 orders beta has, so each order's
path, path design, missing pairs and relabelings are built once, at import,
from the same rules (_SORTED_ORDERS); a call sorts beta and reads its row,
and its labels are the ones the rule gives.  The candidates are

1. full support;
2. the five-point design missing the end pair (a, d);
3. the four-point design missing (a, d) and the wider two-step pair:
   (a, c) when |beta_a - beta_c| >= |beta_b - beta_d|, else (b, d);
4. the path a-b-c-d itself.

Every candidate keeps the path's three edges; the kinds differ only in which
of the other three pairs they drop.  classify_m4 first evaluates the path's
three region polynomials, the cheapest test of the four, unless two betas
tie: a tie lies in no path region (regions docstring, (ii)).  If they are
all <= 0, it tests 3.; if 3. fails, it tries 4. alone, and neither closed
form of 1. or 2. is evaluated.  Otherwise it tries 1., 2. and 3., in that
order: largest support first.  4. is never tried after 3.: where the
polynomials pass and 3. passes too, 3. is certified or fails, and either
ends the search.

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

Testing the path first changes no label.  A closed form passes its test
exactly when its design satisfies the Kiefer-Wolfowitz conditions: one
strict sign of the numerators makes its weights positive, and nonnegative
slacks keep the derivative toward each missing pair at most 3.  The optimum
is unique, so in exact arithmetic no closed form passes anywhere in the
closed saturated region: its design would be a second optimum, with
positive weight on a pair the path does not use.  The Fraction retry
therefore gives the labels of the largest-support-first order.  In floats
the saturated and four-point tests can both pass within rounding of the
surface the two regions share; testing 3. first gives that band to the
four-point kind, as largest support first does.  The full-support and
five-point tests could pass in the saturated region only within rounding
of a set of codimension 3 or 2, where three or two of their weights vanish.
Ties more than about 37 apart are why ties skip the path test: 1 + 4 lambda
rounds to 1 there, the float test passes, and the path would certify within
rounding of a degenerate optimum.  At beta = (38.5, -38.5, 0) the label is
the five-point design, as in exact arithmetic on the same intensities; at
10 800 points of nine tie families, beta = t d with |t| up to 300, every
label equals that exact evaluation.

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
never return an uncertified design, because every label passes its certificate.
That testing the path first keeps the float labels is also only verified:
against largest support first, labels, certificates and errors were
bit-identical at 489 410 random and lattice points with |beta| up to 40,
123 000 of them within 20 * 64 ulps (of the segment parameter) of 1 500
kind boundaries bisected to adjacent floats.  Without the four-point test
first, 153 of those boundaries flip to saturated, all within 18 * 64 ulps.
The old order stays as a test oracle (tests/helpers.classify_largest_support_first).

Four-point designs whose two missing pairs are disjoint carry no known
optimality region.  Their support, (1,3), (1,4), (2,3), (2,4) up to
relabeling, is the 4-cycle 1-3-2-4-1, so it has at most one positive
stationary design, one scalar root away (regions._cycle_shares).
search_disjoint_four_point solves it exactly at random points and reports
the largest missing-pair slack it met; it asserts nothing.
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
    IntensityUnderflowError,
    Pair,
    Parameters,
    _SMALLEST_NORMAL,
    intensity_vector,
)
from .optimality import KwCertificate, _certificate, kw_check
from .regions import PathDesign, _cycle_shares, _descending_order

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
    """No region's conditions hold at the parameter point, even in exact arithmetic.

    A bug signal: the regions tile all of parameter space.
    """


class ConsistencyError(BtDesignError):
    """A closed-form design failed its own optimality certificate."""


class _CancelledSlack(Exception):
    """A float slack let a closed form through at exactly 0.0, which may be a negative slack that cancelled."""


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
    slack is nonnegative, where a float slack of exactly 0.0 raises
    _CancelledSlack.  The numerators belong to the last pairs of the
    reference order, carried by tau.
    """
    columns = _COLUMNS[tau]
    numerators, slacks = raw([lam[c] for c in columns])
    if not (all(n > 0 for n in numerators) or all(n < 0 for n in numerators)):
        return None
    if not all(s >= 0 for s in slacks):
        return None
    if 0.0 in slacks and not isinstance(lam[0], Fraction):
        raise _CancelledSlack
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
# The closed forms, built from one triangle form and one full-support bracket
# ---------------------------------------------------------------------------


def _triangle(x: Scalar, y: Scalar, z: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Edge numerators of the triangle with edge intensities x, y, z (module docstring), and D, half their sum."""
    yz, zx, xy = y * z, z * x, x * y
    nx = 2 * yz * (yz - x * (y + z))
    ny = 2 * zx * (zx - y * (z + x))
    nz = 2 * xy * (xy - z * (x + y))
    return nx, ny, nz, (nx + ny + nz) / 2


def _full_bracket(lij: Scalar, lik: Scalar, lil: Scalar, ljk: Scalar, ljl: Scalar, lkl: Scalar) -> tuple[Scalar, Scalar]:
    """p = lik lil ljk ljl and the bracket whose product with p is the full-support numerator of w_ij.

    (k, l) is the complement of (i, j).  With e3 = lik lil (ljk + ljl) +
    ljk ljl (lik + lil) the bracket is
    lij (p - lkl e3 + lkl^2 (lik - lil)(ljk - ljl)) + 2 p lkl.
    """
    p = lik * lil * ljk * ljl
    e3 = lik * lil * (ljk + ljl) + ljk * ljl * (lik + lil)
    return p, lij * (p - lkl * e3 + lkl * lkl * (lik - lil) * (ljk - ljl)) + 2 * p * lkl


def _five_point_tau(missing: Pair) -> tuple[int, ...]:
    """The relabeling 1234 -> ijkl of the pair (i, j) with complement (k, l)."""
    return (missing.i, missing.j, *sorted({1, 2, 3, 4} - {missing.i, missing.j}))


# The full-support numerator of w_ij reads the intensities relabeled as for the five-point design missing (i, j).
_FULL_COLUMNS = tuple(_COLUMNS[_five_point_tau(p)] for p in _PAIRS4)


def full_support_raw(lam: Intensities) -> tuple[tuple[Scalar, ...], tuple[()]]:
    """The six weight numerators and no slacks.

    lam and the numerators are both in all_pairs(4) order; the numerator of
    w_ij is p times the bracket of _full_bracket.  Each weight is its
    numerator over their sum, and the point is in the full-support region
    exactly when all six share one strict sign.
    """
    brackets = (_full_bracket(*map(lam.__getitem__, columns)) for columns in _FULL_COLUMNS)
    return tuple(p * bracket for p, bracket in brackets), ()


def five_point_raw(lam: Intensities) -> tuple[tuple[Scalar, ...], tuple[Scalar]]:
    """Representative five-point solution (missing pair (1,2)) and its boundary slack.

    Takes the six intensities in reference labels.  The support is the two
    triangles 1-3-4 and 2-3-4, which share the edge (3,4); with their
    _triangle numerators a, b and forms D1, D2, the weight numerators of
    (1,3), (1,4), (2,3), (2,4), (3,4) are

        a13 D2,  a14 D2,  b23 D1,  b24 D1,  a34 D2 + b34 D1 - D1 D2

    over 3 D1 D2.  The slack is the full-support bracket of the missing pair
    (1,2): the derivative toward (1,2) is nonpositive exactly when it is >= 0,
    and the two regions meet where w12 of full support vanishes.
    """
    l12, l13, l14, l23, l24, l34 = lam
    a13, a14, a34, d1 = _triangle(l13, l14, l34)
    b23, b24, b34, d2 = _triangle(l23, l24, l34)
    numerators = (a13 * d2, a14 * d2, b23 * d1, b24 * d1, a34 * d2 + b34 * d1 - d1 * d2)
    return numerators, (_full_bracket(*lam)[1],)


def four_point_shared_raw(lam: Intensities) -> tuple[tuple[Scalar, ...], tuple[Scalar, Scalar]]:
    """Representative solution for missing pairs (1,2) and (1,3).

    Takes the six intensities in reference labels.  The support is the
    triangle 2-3-4 plus the edge (1,4), which carries one third: the weight
    numerators of (1,4), (2,3), (2,4), (3,4) are D and the triangle's
    _triangle numerators, over 3 D.  The slacks of the two missing-direction
    conditions follow; both must be >= 0 inside the region.
    """
    l12, l13, l14, l23, l24, l34 = lam
    n23, n24, n34, d = _triangle(l23, l24, l34)
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


class _SortedOrder:
    """The candidates of one descending order of (*beta, 0), the sorted path a-b-c-d.

    Each closed-form candidate is (missing pairs, tau): five_point misses
    (a, d), and four_ac or four_bd misses (a, d) and the wider two-step pair,
    (a, c) or (b, d).  positions holds the 0-based a, b, c, d that decide
    which of the two is wider.  design is the path's equal-weight design,
    shared by every call and read-only.
    """

    __slots__ = ("path", "design", "positions", "five_point", "four_ac", "four_bd")

    def __init__(self, order: tuple[int, ...]) -> None:
        self.path = PathDesign(tuple(v + 1 for v in order))
        self.design = self.path.design()
        a, b, c, d = self.path.order
        self.positions = (a - 1, b - 1, c - 1, d - 1)
        end = Pair(a, d)
        self.five_point = (end,), _five_point_tau(end)
        four_point = []
        for wider in (Pair(a, c), Pair(b, d)):
            missing = tuple(sorted((end, wider)))
            four_point.append((missing, _four_point_tau(*missing)))
        self.four_ac, self.four_bd = four_point


def _sorted_orders() -> dict[tuple[int, ...], _SortedOrder]:
    """One row per order of four alternatives, keyed by regions._descending_order.

    An order and its reversal name the same path, so they share a row.
    """
    rows = {}
    for order in itertools.permutations(range(4)):
        if order[0] < order[-1]:
            rows[order] = rows[order[::-1]] = _SortedOrder(order)
    return rows


_SORTED_ORDERS = _sorted_orders()


def _describe(kind: RegionKind, missing: tuple[Pair, ...], path: PathDesign | None) -> str:
    """The name of a candidate in error messages."""
    if kind is RegionKind.FULL_SUPPORT:
        return "full-support formula"
    if kind is RegionKind.SATURATED:
        return f"saturated region of path {path.order}"
    points = "five" if kind is RegionKind.FIVE_POINT else "four"
    return f"{points}-point formula missing " + ", ".join(map(repr, missing))


def _kirchhoff_values(w: Sequence[Scalar], lam: Intensities) -> tuple[np.ndarray] | None:
    """lambda f^T M^{-1} f of a design for every pair, by the matrix-tree theorem (module docstring).

    With c = w lambda, each value is lambda_p T_p / T.  For p = (i, j) with
    complement {k, l}, A = c_ik + c_jk, B = c_il + c_jl and C = c_kl, the sum
    T_p = A B + (A + B) C of the 2-forests that separate i and j; Foster's
    theorem gives the sum of the spanning trees, T = sum(c_p T_p) / 3.
    Floats or Fractions alike; each value is rounded once to a float.  Each
    value is of degree 0 in lambda, so where T or a T_p falls below the
    normal floats, the values are taken once more on lambda scaled by the
    power of two that brings its largest entry into [1/2, 1), which is exact.
    None where T is 0, a support that leaves a vertex or the control apart,
    or in floats where T or a T_p is still below the normal floats.  Shaped
    as _certificate takes it.
    """
    c12, c13, c14, c23, c24, c34 = (w[0] * lam[0], w[1] * lam[1], w[2] * lam[2],
                                    w[3] * lam[3], w[4] * lam[4], w[5] * lam[5])
    a, b = c13 + c23, c14 + c24
    t12 = a * b + (a + b) * c34
    a, b = c12 + c23, c14 + c34
    t13 = a * b + (a + b) * c24
    a, b = c12 + c24, c13 + c34
    t14 = a * b + (a + b) * c23
    a, b = c12 + c13, c24 + c34
    t23 = a * b + (a + b) * c14
    a, b = c12 + c14, c23 + c34
    t24 = a * b + (a + b) * c13
    a, b = c13 + c14, c23 + c24
    t34 = a * b + (a + b) * c12
    total = c12 * t12 + c13 * t13 + c14 * t14 + c23 * t23 + c24 * t24 + c34 * t34
    if not total or (not isinstance(total, Fraction) and min(total, t12, t13, t14, t23, t24, t34) < _SMALLEST_NORMAL):
        if isinstance(total, Fraction) or max(lam) >= 0.5:
            return None
        k = math.ldexp(1.0, -math.frexp(max(lam))[1])
        return _kirchhoff_values(w, [x * k for x in lam])
    s = 3 / total
    values = lam[0] * t12 * s, lam[1] * t13 * s, lam[2] * t14 * s, lam[3] * t23 * s, lam[4] * t24 * s, lam[5] * t34 * s
    return (np.array(values, dtype=float),)


def _certify(found: Sequence[np.ndarray] | None, params: Parameters, what: Callable[[], str]) -> KwCertificate:
    """The candidate's certificate from its _kirchhoff_values; ConsistencyError when it fails.

    what names the candidate; it is called only when the certificate fails.
    """
    cert = _certificate(found, params.m)
    if cert.is_optimal:
        return cert
    raise ConsistencyError(
        f"{what()} claimed optimality at beta={params.beta} but the certificate "
        f"shows violation {cert.max_violation:.3e}"
    )


def _candidates(
    params: Parameters, lam: Intensities
) -> Iterator[tuple[RegionKind, Design | None, tuple[Pair, ...], PathDesign | None]]:
    """The one candidate of each kind, in the order of the module docstring, each built when reached.

    Yields (kind, design or None outside its region, missing pairs, path).
    Inside the path's region, unless the four-point candidate passes too,
    only the path is yielded; otherwise the order is largest support first,
    without the path, which could only follow a four-point candidate that
    ends the search.  The module docstring says why this gives the labels of
    largest support first and why no other candidate is needed.  Everything
    but the region polynomials is read from the row of beta's descending
    order in _SORTED_ORDERS.
    """
    beta = (*params.beta, 0.0)
    row = _SORTED_ORDERS[tuple(_descending_order(beta))]
    a, b, c, d = row.positions
    four_missing, four_tau = row.four_ac if abs(beta[a] - beta[c]) >= abs(beta[b] - beta[d]) else row.four_bd
    # A tie lies in no path region (regions docstring, (ii)); in floats its
    # test can pass once 1 + 4 lambda rounds to 1, so ties skip it.
    saturated = len(set(beta)) == 4 and all(v <= 0.0 for v in saturated_inequality_values(row.path, lam))
    if saturated:
        four = _closed_form_design(four_point_shared_raw, four_tau, lam)
        if four is None:
            yield RegionKind.SATURATED, row.design, (), row.path
            return
    yield RegionKind.FULL_SUPPORT, _closed_form_design(full_support_raw, (1, 2, 3, 4), lam), (), None
    missing, tau = row.five_point
    yield RegionKind.FIVE_POINT, _closed_form_design(five_point_raw, tau, lam), missing, None
    if not saturated:
        four = _closed_form_design(four_point_shared_raw, four_tau, lam)
    yield RegionKind.FOUR_POINT_SHARED_VERTEX, four, four_missing, None


def _first_certified(params: Parameters, lam: Intensities) -> RegionLabel | None:
    """The label of the first candidate inside its region; None when there is none.

    The candidate is certified by _kirchhoff_values, on floats or, for
    Fraction intensities, on its weights as Fractions.
    """
    exact = isinstance(lam[0], Fraction)
    for kind, design, missing, path in _candidates(params, lam):
        if design is not None:
            w = design.w.tolist()
            found = _kirchhoff_values([Fraction(x) for x in w] if exact else w, lam)
            cert = _certify(found, params, lambda: _describe(kind, missing, path))
            return RegionLabel(kind, design, cert, missing, path)
    return None


def classify_m4(params: Parameters) -> RegionLabel:
    """Map a parameter point to its optimality region and certified design.

    One candidate per kind, taken from the sorted-beta path, is tried.  The
    path's region is tested first; inside it only the four-point candidate
    is tried before the path, and elsewhere the order is largest support
    first.  The labels are those of largest support first (the module
    docstring says why), which fixes which region claims a shared boundary:
    full support is open, saturated regions are closed, and intermediate
    boundaries go to the first kind that certifies.  When the float pass
    finds no region, meets a slack that cancelled to 0.0 or a candidate
    fails its certificate (by a violation or an underflow), the same
    intensities are tried once more as Fractions, where the polynomials and
    the certificates evaluate exactly; a failure there propagates.  Every
    certificate is judged at KW_TOLERANCE.
    """
    if params.m != 4:
        raise ValueError(f"closed-form classification requires m=4, got m={params.m}")
    lam = _intensities(params)
    try:
        label = _first_certified(params, lam)
    except (ConsistencyError, _CancelledSlack):
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
# Disjoint-orbit four-point designs: the exact stationary design, and a search
# ---------------------------------------------------------------------------


# Draws per block of the search: the block's intensities and shares stay
# near 1 MB, however many draws are made.
_DISJOINT_BLOCK = 8192


def _disjoint_design(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stationary design on the disjoint-orbit support and its two slacks, one row per draw.

    lam holds the six intensities in _PAIRS4 order, shape (n, 6).  The
    support, columns 1-4, is the cycle 1-3-2-4-1, whose one positive
    stationary design is w_c = (1 - r_c)/3 (NaN where there is none).  The
    slacks are 3 - d on (1,2) and (3,4), opposite vertices of the cycle:
    d = 3 lambda_p r_A r_B / tau (the regions docstring), with tau read on
    the smallest-lambda edge e as r_e (sum of the other shares) lambda_e, so
    that it keeps its digits when r_e is near 1, and lambda_p / lambda_e
    taken first, so that tiny intensities do not underflow it.
    """
    lam_sup = lam[:, 1:5]
    r = np.array([_cycle_shares(row) or [math.nan] * 4 for row in lam_sup.tolist()])
    e = lam_sup.argmin(axis=1)[:, None]
    tau = np.take_along_axis(r, e, axis=1) * np.where(np.arange(4) == e, 0.0, r).sum(axis=1, keepdims=True)
    # r_A r_B: (1,2) by 1-3-2 and 1-4-2, (3,4) by 3-1-4 and 3-2-4.
    arcs = np.stack([(r[:, 0] + r[:, 2]) * (r[:, 1] + r[:, 3]), (r[:, 0] + r[:, 1]) * (r[:, 2] + r[:, 3])], axis=1)
    with np.errstate(over="ignore"):  # past the float range d is inf, and the slack -inf
        d = 3.0 * (lam[:, [0, 5]] / np.take_along_axis(lam_sup, e, axis=1)) * arcs / tau
    return (1.0 - r) / 3.0, 3.0 - d


def _evaluable(beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The draws, in order, whose intensities do not underflow, and those intensities.

    intensity_vector decides: a block that raises is retried in halves, and single draws that raise are dropped.
    """
    try:
        return beta, intensity_vector(beta)
    except IntensityUnderflowError:
        if len(beta) == 1:
            return beta[:0], np.empty((0, 6))
    halves = _evaluable(beta[: len(beta) // 2]), _evaluable(beta[len(beta) // 2 :])
    return np.concatenate([h[0] for h in halves]), np.concatenate([h[1] for h in halves])


@dataclass(frozen=True)
class DisjointSearchReport:
    """Outcome of the search for a non-saturated disjoint-orbit optimum.

    n_starts counts the parameter points drawn, and interior_count those
    with a positive stationary design on the support (a draw whose intensity
    underflows has none it can evaluate: it counts in n_starts alone); certified_count is how
    many of those designs had both slacks >= 0 and passed kw_check
    (expected: zero).  best_slack is the largest min(slack1, slack2) over
    them, -inf where every one overflows, and best_point the beta and weights
    on (1,3), (1,4), (2,3), (2,4) of the first draw that attains it; it is
    None exactly when interior_count is 0.
    """

    n_starts: int
    interior_count: int
    certified_count: int
    best_slack: float
    best_point: tuple[float, ...] | None


def search_disjoint_four_point(
    n_starts: int = 100_000, seed: int = 0, beta_scale: float = 5.0
) -> DisjointSearchReport:
    """Solve the disjoint-orbit support exactly at points uniform in [-beta_scale, beta_scale]^3.

    _disjoint_design gives each point's stationary design and slacks without
    M; a design whose slacks are both >= 0 is then certified through M.
    """
    rng = np.random.default_rng(seed)
    interior = certified = 0
    best_slack = float("-inf")
    best_point: tuple[float, ...] | None = None
    for lo in range(0, n_starts, _DISJOINT_BLOCK):
        # Drawn block by block, the points are those of one (n_starts, 3) draw.
        beta, lam = _evaluable(rng.uniform(-beta_scale, beta_scale, size=(min(_DISJOINT_BLOCK, n_starts - lo), 3)))
        if not len(beta):
            continue
        w, slacks = _disjoint_design(lam)
        positive = ~np.isnan(w[:, 0])
        interior += int(np.count_nonzero(positive))
        slack = slacks.min(axis=1)
        slack[np.isnan(slack)] = -np.inf  # no positive design, or no slack in the float range
        if positive.any():  # best_point is set even where every positive design's slack is -inf
            top = int(np.flatnonzero(positive)[slack[positive].argmax()])
            if best_point is None or slack[top] > best_slack:
                best_slack, best_point = float(slack[top]), (*beta[top].tolist(), *w[top].tolist())
        for i in np.flatnonzero(slack >= 0.0):  # zero weight on (1,2) and (3,4)
            certified += kw_check(Design(4, np.pad(w[i], 1)), Parameters(4, tuple(beta[i]))).is_optimal
    return DisjointSearchReport(
        n_starts=n_starts,
        interior_count=interior,
        certified_count=certified,
        best_slack=best_slack,
        best_point=best_point,
    )
