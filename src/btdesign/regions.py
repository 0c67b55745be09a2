"""Optimality regions of saturated path designs, for any number of alternatives.

An optimal saturated design puts weight 1/(m-1) on each edge of a labeled
Hamiltonian path.  For the canonically labeled path 1-2-...-m its region of
optimality in parameter space is cut out by

    g(i, j) = lambda_ij * sum_{k=i}^{j-1} 1 / lambda_{k,k+1}  <=  1

over all pairs; consecutive pairs give exactly 1.  Any other path's region
is the relabeling of this one, which here is evaluated directly from vertex
positions along the path.  Regions are closed: boundary points count as
inside.

For m >= 3 at most one path's region can contain a given beta: the path
that visits the alternatives in descending order of beta_full().  Write
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
the descending order of beta_full().  A point with tied coordinates lies
in no path region, so how ties are broken never matters.  In floating
point, 1 + 4 lambda_ca rounds to 1 once |beta_c - beta_a| exceeds about 37;
such a point tests as on the boundary of every tied order, and the stable
sort picks one of them.

Evaluation.  With the path's edges numbered k = 0..m-2 in visiting order,
the sum in g(i, j) runs over the edges between the positions a < b of i and
j.  All of them come from one upper-triangular array of row-wise cumulative
sums, S[a, c] = sum_{k=a}^{c} 1 / lambda_k, each row accumulated from its own
start a, and g = lambda_ij * S[a, b-1]: O(m^2) work for all pairs.  A single
prefix sum c_b - c_a along the path would be as cheap but cancels
catastrophically: an early edge with a tiny intensity makes every later c
huge, and the difference of two huge numbers loses the small terms between
them.  At m = 4, beta = (100, 2, 1), that form gives margin -0.63 ("inside")
where the true margin is +0.068.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import Design, Pair, Parameters, all_pairs, intensity_vector


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

    def design(self) -> Design:
        """The rigid equal-weight design on the path's edges."""
        return Design.equal_on(self.m, self.edges())

    @classmethod
    def canonical(cls, m: int) -> "PathDesign":
        return cls(tuple(range(1, m + 1)))


def sorted_beta_path(params: Parameters) -> PathDesign:
    """The only path whose region can contain beta (see the module docstring)."""
    order = np.argsort(-params.beta_full(), kind="stable") + 1
    return PathDesign(tuple(order))


@dataclass(frozen=True)
class RegionMembership:
    """Evaluation of one path's region inequalities at one parameter point.

    g_values holds g - offsets for the non-edge pairs only (edges are
    identically 1); margin is the largest g - 1 over those pairs and the
    point is inside exactly when margin <= 0.
    """

    path: PathDesign
    g_values: Mapping[Pair, float]
    inside: bool
    margin: float


def path_g_values(path: PathDesign, lam: np.ndarray) -> np.ndarray:
    """g(i, j) of the path for every pair, from (..., P) intensities in all_pairs order.

    Returns an array of lam's shape; edges give exactly 1.  See the module
    docstring for why the sums are accumulated row by row.
    """
    m = path.m
    order = np.asarray(path.order)
    u, v = np.minimum.outer(order, order), np.maximum.outer(order, order)
    column = (u - 1) * m - (u - 1) * u // 2 + v - u - 1  # of the pair at positions (a, b)
    k = np.arange(m)
    inverse = 1.0 / lam[..., column[k[:-1], k[1:]]]
    S = np.cumsum(np.where(k[:-1, None] <= k[:-1], inverse[..., None, :], 0.0), axis=-1)
    a, b = np.nonzero(k[:, None] + 2 <= k)
    g = np.ones(np.shape(lam))
    g[..., column[a, b]] = lam[..., column[a, b]] * S[..., a, b - 1]
    return g


def g_value(path: PathDesign, params: Parameters, pair: Pair) -> float:
    """Region inequality value g(i, j) of the path at a parameter point."""
    g = path_g_values(path, intensity_vector(params.beta))
    return float(g[all_pairs(path.m).index(pair)])


def region_membership(path: PathDesign, params: Parameters) -> RegionMembership:
    """Evaluate all non-edge inequalities of the path's region at beta."""
    g = path_g_values(path, intensity_vector(params.beta))
    edges = set(path.edges())
    g_values = {p: v for p, v in zip(all_pairs(path.m), g.tolist()) if p not in edges}
    margin = max(g_values.values(), default=1.0) - 1.0
    return RegionMembership(path=path, g_values=g_values, inside=margin <= 0.0, margin=margin)


def find_optimal_saturated(params: Parameters) -> tuple[PathDesign, RegionMembership] | None:
    """The path whose region contains beta, or None when no region does."""
    path = sorted_beta_path(params)
    membership = region_membership(path, params)
    return (path, membership) if membership.inside else None
