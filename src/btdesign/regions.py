"""Optimality regions of saturated path designs, for any number of alternatives.

An optimal saturated design puts weight 1/(m-1) on each edge of a labeled
Hamiltonian path (the path theorem, proven below).  For the canonically
labeled path 1-2-...-m its region of optimality in parameter space is cut
out by

    g(i, j) = lambda_ij * sum_{k=i}^{j-1} 1 / lambda_{k,k+1}  <=  1

over all pairs; consecutive pairs give exactly 1.  Any other path's region
is the relabeling of this one, which here is evaluated directly from vertex
positions along the path.  Regions are closed: boundary points count as
inside.

For m >= 3 at most one path's region can contain a given beta: the path
that visits the alternatives in descending order of (*beta, 0), beta with
the control's zero appended.  Write
lambda_xy for the intensity of the pair (x, y); it strictly decreases in
|beta_x - beta_y| and is 1/4 at 0.

(i) Say a path visits a, b, c consecutively and beta_b lies strictly
    outside [min(beta_a, beta_c), max(beta_a, beta_c)].  Then
    |beta_a - beta_c| < max(|beta_a - beta_b|, |beta_b - beta_c|), so
    lambda_ac > min(lambda_ab, lambda_bc) and
    g(a, c) = lambda_ac (1/lambda_ab + 1/lambda_bc) > 1.
(ii) Say adjacent a, b have beta_a = beta_b, and c is the other neighbour
    of a (one of the two has another neighbour when m >= 3).  Then
    lambda_cb = lambda_ca and lambda_ab = 1/4, so
    g(c, b) = 1 + lambda_ca / lambda_ab = 1 + 4 lambda_ca > 1.

Along a path whose region contains beta, (ii) makes neighbours' betas
distinct, and then (i) puts each inner vertex's beta strictly between its
neighbours'.  So beta is strictly monotone along the path, which makes it
the descending order of (*beta, 0).  A point with tied coordinates lies
in no path region, so how ties are broken never matters.  In floating
point, 1 + 4 lambda_ca rounds to 1 once |beta_c - beta_a| exceeds about 37;
such a point tests as on the boundary of every tied order, and the stable
sort picks one of them.  At m = 4, classify_m4 therefore never runs the
path test at a tied point.

The path theorem.  Every saturated D-optimal design is the design of the
sorted path.  Write k = m - 1.

* A saturated design has k support pairs, and M is nonsingular only when
  they form a spanning tree T.  Then det M = prod_{e in T} w_e lambda_e,
  because T's incidence matrix grounded at the control is unimodular, so
  a saturated optimum is a spanning tree with weight 1/k on each edge.
* On that design M is T's Laplacian grounded at the control, with edge
  conductances lambda_e / k.  So d_ab = lambda_ab f^T M^{-1} f, which the
  equivalence theorem bounds by k, is lambda_ab times the effective
  resistance between a and b (Ghosh, Boyd & Saberi 2008).  On a tree that
  is the sum of k / lambda_e along T's path from a to b, so
  d_ab - k = k (g(a, b) - 1), where g sums 1/lambda_e along that path (the
  tree identity).  The design is optimal exactly when every g <= 1.
* (i) and (ii) read g on two consecutive edges alone, so they hold in any
  tree.  Let a vertex v of T have three neighbours whose betas are
  x <= y <= z.  By (i), beta_v lies in [x, y], [x, z] and [y, z], which
  meet only at y: v ties with a neighbour u.  v has another neighbour c,
  and (ii) gives g(c, u) > 1.
* So no optimal tree has a vertex of degree 3 or more: it is a path, and
  by (i) and (ii) the sorted one.

Evaluation.  With the path's edges numbered k = 0..m-2 in visiting order,
the sum in g(i, j) runs over the edges between the positions a < b of i and
j.  All of them come from one upper-triangular array of row-wise cumulative
sums, S[a, c] = sum_{k=a}^{c} 1 / lambda_k, each row accumulated from its own
start a, and g = lambda_ij * S[a, b-1]: O(m^2) work for all pairs.  A single
prefix sum c_b - c_a along the path would be as cheap but cancels
catastrophically: an early edge with a tiny intensity makes every later c
huge, and the difference of two huge numbers loses the small terms between
them.  At m = 4, beta = (100, 2, 1), that form gives margin -0.63 ("inside")
where the true margin is +0.068.  g has degree 0 in lambda, so where an
edge intensity is subnormal, and its inverse may be inf, lambda is scaled by
2**54 first: every 1/lambda is then finite, 1/4 becomes 2**52, and scaling by
a power of two changes no rounding where nothing under- or overflows.

Certificate.  By the tree identity, the equivalence-theorem derivative of
the path's design toward (i, j) is exactly (m-1)(g(i, j) - 1).
region_membership builds the design's certificate from the same g it
tests, with no factorization of M: edges read exactly 0, and the
certificate is never singular.  At m = 4, classify_m4 certifies the
same path, and its closed forms, by four_alt's matrix-tree kernel, which
on a tree reduces to this sum.  kw_check, solve and the CLI's verify and
optimize still factor M, so they remain an independent check of this
identity.  find_optimal_saturated returns the path, its design and this
certificate as a RegionLabel; RegionKind, RegionLabel and region_margin, the
answer types of every classify route, live in this module.

Path plus chords.  Let a support be the path plus chords, pairs at path
positions a < b with b - a >= 2, whose spans [a, b] share no path edge.
Each chord then closes its own cycle with the path edges between its ends,
and the cycles share no edge: the support is a cactus.  _cactus_weights
gives its one stationary design, d = k on every support pair (solve's round
1 trial, with the chords the start's violators):

* d_e = lambda_e R_e, where R_e is the effective resistance between the
  ends of e under conductances lambda w (Ghosh, Boyd & Saberi 2008).  The
  resistance between the ends of a cycle edge depends only on that cycle,
  so the cycles decouple.
* A path edge that lies on no cycle (a bridge) has R_e = 1/(lambda_e w_e),
  so it gets weight 1/k.
* On a cycle C, with edge resistances rho_c = 1/(lambda_c w_c) summing to
  S, R_c = rho_c (S - rho_c) / S.  So w_c = (1 - r_c)/k with r_c = rho_c/S,
  where sum_{c in C} r_c = 1 and r_c (1 - r_c) lambda_c = k/S = tau_C for
  every c in C.  The cycle's weights sum to (|C| - 1)/k, so the design's
  sum to one.
* Solve in u, the r of the cycle's smallest-lambda edge 0.  Then
  tau = u (1 - u) lambda_0, and every other r_c is the small root of
  r (1 - r) lambda_c = tau: were r_c > 1/2, then r_0 < 1 - r_c < 1/2, so
  r_0 (1 - r_0) lambda_0 < r_c (1 - r_c) lambda_c.  Let
  G(u) = u + sum_{c != 0} r_c - 1.  Then G(0) = -1, and u = 1 is a spurious
  root that zeroes edge 0.
* On (0, 1/2], tau and with it G increases in u, so G(1/2) >= 0 puts one
  root there and G(1/2) < 0 none.  On (1/2, 1), write s = 1 - u,
  t = s (1 - s), q_c = lambda_0 / lambda_c <= 1 and
  phi(y) = 2 / (1 + sqrt(1 - 4 y)), so that r_c = q_c t phi(q_c t) and
  s = t phi(t).  Then G = s (sum_{c != 0} q_c phi(q_c t) / phi(t) - 1).
  log phi is convex, so each ratio falls as s rises to 1/2, and the
  bracket falls from sum q_c - 1 to 2 G(1/2).  So if G(1/2) >= 0 the
  root lies in (0, 1/2]; else, if sum_{c != 0} lambda_0 / lambda_c > 1,
  it lies in (1/2, 1); else no positive design exists on that support.
* So (0, 1) holds at most one root, as it must: log det is strictly
  concave in w, because w -> M is injective, so each support has at most
  one stationary point.  _cycle_shares finds it by bracketed Newton in
  s = min(u, 1 - u), on G itself below 1/2 and on the bracket above.
* At m = 4 a one-chord cactus is the paper's four-point shared-vertex
  design, with w = 1/3 on the edge off the triangle (four_alt's w14).  A
  chord that joins the path's ends gives the 4-cycle whose missing pairs
  are disjoint (four_alt._disjoint_design).
* Between any two vertices x, y of a cycle the two arcs are resistors in
  parallel, so R_xy = S r_A r_B, with r_A + r_B = 1 the arcs' share sums,
  and a pair (x, y) off the support has d = k lambda_xy r_A r_B / tau_C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import _SMALLEST_NORMAL, SUPPORT_THRESHOLD, Design, Pair, Parameters, _pair_columns, all_pairs
from .optimality import KwCertificate, _certificate


@dataclass(frozen=True)
class PathDesign:
    """A labeled Hamiltonian path, stored with its lower-numbered end first."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        order = tuple(int(v) for v in self.order)
        if sorted(order) != list(range(1, len(order) + 1)):
            raise ValueError(f"path order must visit each of 1..{len(order)} once, got {order}")
        if order[0] > order[-1]:
            order = order[::-1]
        object.__setattr__(self, "order", order)

    @property
    def m(self) -> int:
        return len(self.order)

    def edges(self) -> tuple[Pair, ...]:
        return tuple(Pair(self.order[k], self.order[k + 1]) for k in range(self.m - 1))

    def _edge_columns(self) -> np.ndarray:
        """The all_pairs columns of the edges, in visiting order."""
        vertex = np.asarray(self.order) - 1
        return _pair_columns(self.m)[vertex[:-1], vertex[1:]]

    def design(self) -> Design:
        """The rigid equal-weight design on the path's edges."""
        w = np.zeros(self.m * (self.m - 1) // 2)
        w[self._edge_columns()] = 1.0 / (self.m - 1)
        return Design(self.m, w)

    @classmethod
    def canonical(cls, m: int) -> "PathDesign":
        return cls(tuple(range(1, m + 1)))


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


def _descending_order(beta_full: Sequence[float]) -> list[int]:
    """0-based indices of beta_full from largest to smallest value, ties by index.

    The one definition of "descending order of beta": the order of
    np.argsort(-beta_full, kind="stable"), so -0.0 ties with 0.0 and equal
    values keep their index order.
    """
    return sorted(range(len(beta_full)), key=beta_full.__getitem__, reverse=True)


def sorted_beta_path(params: Parameters) -> PathDesign:
    """The only path whose region can contain beta (see the module docstring)."""
    return PathDesign(tuple(v + 1 for v in _descending_order((*params.beta, 0.0))))


@dataclass(frozen=True)
class RegionMembership:
    """Evaluation of one path's region inequalities at one parameter point.

    margin is the largest g - 1 over the non-edge pairs, 0 when there are
    none (edges give exactly 1); the point is inside exactly when margin <= 0.
    certificate is the equivalence-theorem certificate of the path's design
    at the point, built from the same g (see the module docstring).
    """

    path: PathDesign
    inside: bool
    margin: float
    certificate: KwCertificate


@lru_cache(maxsize=None)
def _path_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of :func:`path_g_values` that depend on m alone.

    upper masks the row-wise sums S[a, c], c >= a; (a, b) lists the path
    positions of every non-edge pair, a + 2 <= b.
    """
    x = np.arange(m)
    upper = x[:-1, None] <= x[:-1]
    a, b = np.nonzero(x[:, None] + 2 <= x)
    for table in (upper, a, b):
        table.setflags(write=False)
    return upper, a, b


def path_g_values(path: PathDesign, lam: np.ndarray) -> np.ndarray:
    """g(i, j) of the path for every pair, from (..., P) intensities in all_pairs order.

    Returns an array of lam's shape; edges give exactly 1.  The module
    docstring says why the sums run row by row, and why lambda is scaled by
    2**54 where an edge intensity is below the normal floats.
    """
    column = _pair_columns(path.m)
    upper, a, b = _path_tables(path.m)
    vertex = np.asarray(path.order) - 1  # vertex at each path position, 0-based
    edge = lam[..., path._edge_columns()]
    if (edge < _SMALLEST_NORMAL).any():
        lam, edge = lam * 2.0**54, edge * 2.0**54
    pairs = column[vertex[a], vertex[b]]
    g = np.ones(np.shape(lam))
    with np.errstate(over="ignore"):  # off the sorted path a sum can pass the largest float; inf reads as outside
        S = np.cumsum(np.where(upper, 1.0 / edge[..., None, :], 0.0), axis=-1)
        g[..., pairs] = lam[..., pairs] * S[..., a, b - 1]
    return g


# Bracketed Newton steps per cycle; 4-11 reach the float floor.
_ROOT_STEPS = 50


def _cycle_shares(lam: list[float]) -> list[float] | None:
    """The shares r_c of one cycle's edges, or None when no positive design exists on it.

    Solves r_c (1 - r_c) lam_c = tau, one tau for the cycle, with sum r_c = 1,
    by bracketed Newton in s, the smaller of u and 1 - u, where u is the
    share of the smallest-lam edge; the module docstring derives the
    branches and why each holds at most one root.
    """
    i0 = min(range(len(lam)), key=lam.__getitem__)
    p = [lam[i0] / x for i, x in enumerate(lam) if i != i0]  # lam_min / lam_c <= 1

    def rest(s: float) -> tuple[float, float]:
        """R(s), the sum of the other edges' small roots at tau = s (1 - s) lam_min, and R'(s)."""
        t, gap = s * (1.0 - s), 1.0 - 2.0 * s
        total = slope = 0.0
        for q in p:
            z = math.sqrt(gap * gap + 4.0 * t * (1.0 - q))  # sqrt(1 - 4 t q), without cancellation
            total += 2.0 * t * q / (1.0 + z)
            slope += q * gap / z if z else q  # the limit at s = 1/2 when q = 1
        return total, slope

    def small(s: float) -> tuple[float, float]:  # u = s: s + R(s) - 1
        total, slope = rest(s)
        return s + total - 1.0, 1.0 + slope

    def large(s: float) -> tuple[float, float]:  # u = 1 - s: 1 - R(s)/s
        total, slope = rest(s)
        return 1.0 - total / s, (total / s - slope) / s

    at_half = rest(0.5)[0]
    if at_half >= 0.5:
        f, s = small, 1.0 / len(lam)
    elif sum(p) > 1.0:
        # The secant of R(s)/s - 1 from (0, sum p - 1) to (1/2, 2 R(1/2) - 1).
        f, s = large, 0.5 * (sum(p) - 1.0) / (sum(p) - 2.0 * at_half)
    else:
        return None
    lo, hi = 0.0, 0.5  # f increases on (0, 1/2], below 0 at lo and above it at hi
    for _ in range(_ROOT_STEPS):
        g, slope = f(s)
        if g == 0.0:
            break
        if g < 0.0:
            lo = s
        else:
            hi = s
        step = g / slope
        s -= step
        if abs(step) <= 1e-15 * s:
            break
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
    t = s * (1.0 - s)
    shares = [2.0 * t * q / (1.0 + math.sqrt((1.0 - 2.0 * s) ** 2 + 4.0 * t * (1.0 - q))) for q in p]
    shares.insert(i0, s if f is small else 1.0 - s)
    return shares


def _cactus_weights(path: PathDesign, lam: np.ndarray, chords: Sequence[int]) -> np.ndarray | None:
    """The stationary design on the path plus chords, or None when it is not a cactus or has no positive design.

    chords holds all_pairs columns.  The support is a cactus when every
    chord joins path positions a, b with b - a >= 2 and no two chords'
    spans [a, b] share a path edge (see the module docstring); weights are
    1/k on a bridge and (1 - r_c)/k on a cycle's edges.
    """
    k = path.m - 1
    if len(chords) > k // 2:  # each chord spans at least two of the k path edges, and none share one
        return None
    pairs = all_pairs(path.m)
    position = [0] * (path.m + 1)
    for at, v in enumerate(path.order):
        position[v] = at
    spans = sorted((*sorted((position[pairs[c].i], position[pairs[c].j])), c) for c in chords)
    reached = 0
    for a, b, _ in spans:
        if b - a < 2 or a < reached:
            return None
        reached = b
    edges = path._edge_columns()
    w = np.zeros(np.shape(lam))
    w[edges] = 1.0 / k
    for a, b, chord in spans:
        cycle = [chord, *edges[a:b].tolist()]
        shares = _cycle_shares(lam[cycle].tolist())
        if shares is None:
            return None
        w[cycle] = (1.0 - np.array(shares)) / k
    return w


def region_membership(path: PathDesign, params: Parameters) -> RegionMembership:
    """Evaluate all non-edge inequalities of the path's region at beta, and certify the path's design from them."""
    g = path_g_values(path, params.intensities)
    off = np.delete(g, path._edge_columns())  # edges give exactly 1
    margin = (float(off.max()) if off.size else 1.0) - 1.0
    # lambda f^T M^{-1} f = (m - 1) g on the path's design, so edges certify at exactly 0.
    certificate = _certificate((path.m - 1) * g, path.m)
    return RegionMembership(path=path, inside=margin <= 0.0, margin=margin, certificate=certificate)


def find_optimal_saturated(params: Parameters) -> RegionLabel | None:
    """The saturated label of the path whose region contains beta, certified by its g; None when no region holds beta."""
    path = sorted_beta_path(params)
    membership = region_membership(path, params)
    if not membership.inside:
        return None
    return RegionLabel(RegionKind.SATURATED, path.design(), membership.certificate, path=path)
