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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .core import Design, Pair, Parameters, all_pairs, intensity_table

Scalar = Union[float, np.ndarray]


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


def g_value_from_intensities(path: PathDesign, lam: Mapping[Pair, Scalar], pair: Pair) -> Scalar:
    """g for one pair, given intensities (scalars or broadcastable arrays)."""
    pos = {v: k for k, v in enumerate(path.order)}
    a, b = sorted((pos[pair.i], pos[pair.j]))
    if b == a + 1:
        return 1.0  # the sum collapses to lambda/lambda; exact by definition
    edges = path.edges()
    total = sum(1.0 / lam[edges[k]] for k in range(a, b))
    return lam[pair] * total


def g_value(path: PathDesign, params: Parameters, pair: Pair) -> float:
    """Region inequality value g(i, j) of the path at a parameter point."""
    return float(g_value_from_intensities(path, intensity_table(params).values, pair))


def region_membership(path: PathDesign, params: Parameters) -> RegionMembership:
    """Evaluate all non-edge inequalities of the path's region at beta."""
    table = intensity_table(params)
    edge_set = set(path.edges())
    g_values = {
        p: float(g_value_from_intensities(path, table.values, p))
        for p in all_pairs(path.m)
        if p not in edge_set
    }
    margin = max(g_values.values(), default=0.0) - 1.0 if g_values else 0.0
    return RegionMembership(path=path, g_values=g_values, inside=margin <= 0.0, margin=margin)


def find_optimal_saturated(params: Parameters) -> tuple[PathDesign, RegionMembership] | None:
    """The path whose region contains beta, or None when no region does."""
    path = sorted_beta_path(params)
    membership = region_membership(path, params)
    return (path, membership) if membership.inside else None
