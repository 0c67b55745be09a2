"""Graph view of designs and the relabeling symmetry of the model.

A design is represented by the undirected graph on the alternatives whose
edges are the supported pairs.  Structural predicates on that graph (tree,
path) decide which saturated designs can be optimal.  Relabeling the
alternatives by a permutation acts on designs and, through the matrices
q_matrix produces, on the parameter space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Design, Pair, Parameters, _pair_columns, all_pairs


@dataclass(frozen=True)
class SupportGraph:
    """Undirected simple graph on the alternatives 1..m."""

    m: int
    edges: frozenset[Pair]

    def __post_init__(self) -> None:
        edges = frozenset(self.edges)
        for e in edges:
            if e.j > self.m:
                raise ValueError(f"edge {e} out of range for m={self.m}")
        object.__setattr__(self, "edges", edges)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.m + 1)}
        for e in self.edges:
            deg[e.i] += 1
            deg[e.j] += 1
        return deg

    def is_connected_spanning(self) -> bool:
        """True when every alternative is reachable from every other."""
        if self.m == 1:
            return True
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.m + 1)}
        for e in self.edges:
            adj[e.i].append(e.j)
            adj[e.j].append(e.i)
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.m


def support_graph(design: Design) -> SupportGraph:
    """Graph whose edges are the pairs in the design's support."""
    return SupportGraph(design.m, frozenset(design.support()))


def is_tree(g: SupportGraph) -> bool:
    """Connected on all m vertices with exactly m-1 edges."""
    return len(g.edges) == g.m - 1 and g.is_connected_spanning()


def is_path(g: SupportGraph) -> bool:
    """A tree in which no vertex meets more than two edges."""
    return is_tree(g) and max(g.degrees().values()) <= 2


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..m}, stored as the image tuple (sigma(1), ..., sigma(m))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(int(v) for v in self.images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v - 1]

    def pair(self, p: Pair) -> Pair:
        return Pair(self(p.i), self(p.j))

    def inverse(self) -> "Permutation":
        inv = [0] * self.m
        for v, img in enumerate(self.images, start=1):
            inv[img - 1] = v
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(v) = self(other(v))."""
        return Permutation(tuple(self(other(v)) for v in range(1, self.m + 1)))

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def transposition(cls, m: int, a: int, b: int) -> "Permutation":
        images = list(range(1, m + 1))
        images[a - 1], images[b - 1] = images[b - 1], images[a - 1]
        return cls(tuple(images))


def q_matrix(sigma: Permutation, m: int | None = None) -> np.ndarray:
    """Integer matrix Q with f(sigma(i), sigma(j)) = Q f(i,j) for all pairs.

    Column i is the ordered regression vector of (sigma(i), sigma(m)), which
    pins Q down uniquely and makes sigma -> Q a group homomorphism.
    """
    m = m or sigma.m
    if sigma.m != m:
        raise ValueError(f"permutation acts on {sigma.m} elements, expected {m}")

    def unit(v: int) -> np.ndarray:
        e = np.zeros(m - 1, dtype=np.int64)
        if v < m:
            e[v - 1] = 1
        return e

    cols = [unit(sigma(i)) - unit(sigma(m)) for i in range(1, m)]
    return np.column_stack(cols)


def apply_to_design(sigma: Permutation, design: Design) -> Design:
    """Relabel every pair by sigma: pair (i, j) gets the weight of (sigma^-1(i), sigma^-1(j))."""
    inverse = np.asarray(sigma.inverse().images) - 1
    u, v = np.triu_indices(design.m, 1)  # the pairs in all_pairs order, 0-based
    return Design(design.m, design.w[_pair_columns(design.m)[inverse[u], inverse[v]]])


def apply_to_params(sigma: Permutation, params: Parameters) -> Parameters:
    """The parameter point Q_sigma^{-T} beta matched to the relabeled design."""
    Q = q_matrix(sigma, params.m).astype(float)
    beta = np.linalg.solve(Q.T, np.asarray(params.beta))
    return Parameters(params.m, tuple(beta))


@lru_cache(maxsize=None)
def enumerate_spanning_trees(m: int) -> tuple[SupportGraph, ...]:
    """All labeled spanning trees on 1..m (m^{m-2} of them)."""
    if m > 7:
        raise ValueError(f"spanning-tree enumeration is capped at m=7, got m={m}")
    trees = []
    for combo in itertools.combinations(all_pairs(m), m - 1):
        g = SupportGraph(m, frozenset(combo))
        if is_tree(g):
            trees.append(g)
    return tuple(trees)
